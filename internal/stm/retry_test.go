package stm

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRetryBlocksUntilWrite runs on software only: Retry panics on HTM
// (TestRetryPanicsOnHTM).
func TestRetryBlocksUntilWrite(t *testing.T) {
	for _, a := range []Algorithm{AlgWriteThrough} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			e := newTestEngine(a)
			flag := NewVar(e, false)
			got := make(chan struct{})
			go func() {
				e.MustAtomic(func(tx *Tx) {
					if !Read(tx, flag) {
						Retry(tx)
					}
				})
				close(got)
			}()
			select {
			case <-got:
				t.Fatal("Retry returned without a write")
			case <-time.After(30 * time.Millisecond):
			}
			e.MustAtomic(func(tx *Tx) { Write(tx, flag, true) })
			select {
			case <-got:
			case <-time.After(10 * time.Second):
				t.Fatal("retrier never woke after the write")
			}
			if e.Stats.RetryWaits.Load() == 0 {
				t.Fatal("no retry wait recorded")
			}
			if e.Stats.RetryAborts.Load() == 0 {
				t.Fatal("no retry abort recorded")
			}
		})
	}
}

func TestRetryUnrelatedWriteDoesNotWake(t *testing.T) {
	e := NewEngine(Config{OrecCount: 1 << 16})
	flag := NewVar(e, false)
	other := NewVar(e, 0)
	woke := make(chan struct{})
	go func() {
		e.MustAtomic(func(tx *Tx) {
			if !Read(tx, flag) {
				Retry(tx)
			}
		})
		close(woke)
	}()
	// Wait until the retrier is parked.
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats.RetryWaits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retrier never parked")
		}
		time.Sleep(time.Millisecond)
	}
	// Writes to an unrelated var (distinct orec at this table size) must
	// not wake it.
	for i := 0; i < 50; i++ {
		e.MustAtomic(func(tx *Tx) { Write(tx, other, i) })
	}
	select {
	case <-woke:
		t.Fatal("unrelated write woke the retrier")
	case <-time.After(30 * time.Millisecond):
	}
	e.MustAtomic(func(tx *Tx) { Write(tx, flag, true) })
	<-woke
}

func TestRetryProducerConsumer(t *testing.T) {
	// A bounded buffer built purely on Retry — the Harris/CCR style the
	// paper's Section 6 contrasts with condvars.
	e := newTestEngine(AlgWriteThrough)
	const capacity, items = 4, 500
	buf := NewVar(e, []int{})
	var sum int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 1; i <= items; i++ {
			e.MustAtomic(func(tx *Tx) {
				b := Read(tx, buf)
				if len(b) >= capacity {
					Retry(tx)
				}
				nb := make([]int, len(b), len(b)+1)
				copy(nb, b)
				Write(tx, buf, append(nb, i))
			})
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < items; i++ {
			var x int
			e.MustAtomic(func(tx *Tx) {
				b := Read(tx, buf)
				if len(b) == 0 {
					Retry(tx)
				}
				x = b[0]
				Write(tx, buf, b[1:])
			})
			sum += int64(x)
		}
	}()
	wg.Wait()
	if want := int64(items) * (items + 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d", sum, want)
	}
}

func TestRetryMultipleWaitersAllWake(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	gate := NewVar(e, false)
	const n = 6
	var woke atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.MustAtomic(func(tx *Tx) {
				if !Read(tx, gate) {
					Retry(tx)
				}
			})
			woke.Add(1)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats.RetryWaits.Load() < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d retriers parked", e.Stats.RetryWaits.Load())
		}
		time.Sleep(time.Millisecond)
	}
	e.MustAtomic(func(tx *Tx) { Write(tx, gate, true) })
	wg.Wait()
	if woke.Load() != n {
		t.Fatalf("woke = %d, want %d", woke.Load(), n)
	}
}

func TestRetryWokenBySerialCommit(t *testing.T) {
	// Serial transactions write in place without locking orecs; their
	// commit stamps the orecs they wrote and wakes those orecs' watchers,
	// exactly as an optimistic commit does.
	e := newTestEngine(AlgWriteThrough)
	flag := NewVar(e, false)
	woke := make(chan struct{})
	go func() {
		e.MustAtomic(func(tx *Tx) {
			if !Read(tx, flag) {
				Retry(tx)
			}
		})
		close(woke)
	}()
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats.RetryWaits.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("retrier never parked")
		}
		time.Sleep(time.Millisecond)
	}
	e.AtomicRelaxed(func(tx *Tx) { Write(tx, flag, true) })
	select {
	case <-woke:
	case <-time.After(10 * time.Second):
		t.Fatal("serial commit did not wake the retrier")
	}
}

// A commit that lands after a retrier's rollback but before it registers
// in waitForChange must be seen by the registration check, serial or
// not: the retrier then sleeps on nothing that could ever post it.
func TestRetrySerialCommitInRegistrationWindow(t *testing.T) {
	writers := map[string]func(*Engine, func(*Tx)) error{
		"optimistic": (*Engine).Atomic,
		"serial":     (*Engine).AtomicRelaxed,
	}
	for name, write := range writers {
		t.Run(name, func(t *testing.T) {
			e := newTestEngine(AlgWriteThrough)
			flag := NewVar(e, false)
			var reads []readEntry
			e.MustAtomic(func(tx *Tx) {
				_ = Read(tx, flag)
				reads = append(reads[:0], tx.reads...)
			})
			if err := write(e, func(tx *Tx) { Write(tx, flag, true) }); err != nil {
				t.Fatal(err)
			}
			done := make(chan struct{})
			go func() {
				e.waitForChange(reads)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("waitForChange slept through a commit that changed its read set")
			}
		})
	}
}

func TestRetryRaceWithCommitNotLost(t *testing.T) {
	// Hammer the registration/commit race: the writer flips the flag
	// while the retrier is between validation and sleep.
	e := newTestEngine(AlgWriteThrough)
	for i := 0; i < 200; i++ {
		flag := NewVar(e, false)
		done := make(chan struct{})
		go func() {
			e.MustAtomic(func(tx *Tx) {
				if !Read(tx, flag) {
					Retry(tx)
				}
			})
			close(done)
		}()
		if i%2 == 0 {
			time.Sleep(time.Duration(i%5) * 100 * time.Microsecond)
		}
		e.MustAtomic(func(tx *Tx) { Write(tx, flag, true) })
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("iter %d: retrier lost the wake-up", i)
		}
	}
}

func TestRetryPanicsOnHTM(t *testing.T) {
	// The paper (Section 6): no commodity hardware TM supports retry.
	e := newTestEngine(AlgHTM)
	v := NewVar(e, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Retry on HTM engine did not panic")
		}
	}()
	e.MustAtomic(func(tx *Tx) {
		_ = Read(tx, v)
		Retry(tx)
	})
}

func TestRetryPanicsInSerial(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	v := NewVar(e, 0)
	err := e.AtomicRelaxed(func(tx *Tx) {
		_ = Read(tx, v)
		defer func() {
			if recover() == nil {
				t.Error("Retry in relaxed txn did not panic")
			}
		}()
		Retry(tx)
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestRetryPanicsOnEmptyReadSet(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	defer func() {
		if recover() == nil {
			t.Fatal("Retry with empty read set did not panic")
		}
	}()
	e.MustAtomic(func(tx *Tx) { Retry(tx) })
}

func TestRetryDoesNotTriggerSerialFallback(t *testing.T) {
	// Many retry sleeps must not push the transaction into serial mode.
	e := NewEngine(Config{MaxRetries: 3})
	counter := NewVar(e, 0)
	const rounds = 10
	done := make(chan struct{})
	go func() {
		for target := 1; target <= rounds; target++ {
			target := target
			e.MustAtomic(func(tx *Tx) {
				if Read(tx, counter) < target {
					Retry(tx)
				}
			})
		}
		close(done)
	}()
	for i := 1; i <= rounds; i++ {
		time.Sleep(2 * time.Millisecond)
		e.MustAtomic(func(tx *Tx) { Write(tx, counter, i) })
	}
	select {
	case <-done:
	case <-time.After(20 * time.Second):
		t.Fatal("retry loop stalled")
	}
	if got := e.Stats.SerialFallback.Load(); got != 0 {
		t.Fatalf("retry sleeps triggered %d serial fallbacks", got)
	}
}

func TestRetryHubQuiescentAfterUse(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	flag := NewVar(e, false)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.MustAtomic(func(tx *Tx) {
				if !Read(tx, flag) {
					Retry(tx)
				}
			})
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats.RetryWaits.Load() < 4 {
		if time.Now().After(deadline) {
			t.Fatal("retriers never parked")
		}
		time.Sleep(time.Millisecond)
	}
	e.MustAtomic(func(tx *Tx) { Write(tx, flag, true) })
	wg.Wait()
	if got := e.retry.count.Load(); got != 0 {
		t.Fatalf("watcher count = %d after drain, want 0", got)
	}
	e.retry.mu.Lock()
	n := len(e.retry.watchers)
	e.retry.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d orecs still have watchers registered", n)
	}
}
