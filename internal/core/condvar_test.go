package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
	"repro/internal/syncx"
)

var testAlgorithms = []stm.Algorithm{stm.AlgWriteThrough, stm.AlgHTM}

func forEachEngine(t *testing.T, f func(t *testing.T, e *stm.Engine)) {
	t.Helper()
	for _, a := range testAlgorithms {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			f(t, stm.NewEngine(stm.Config{Algorithm: a}))
		})
	}
}

func waitUntil(t *testing.T, what string, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestWaitLockedSignalHandOff(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		cv := New(e, Options{})
		var m syncx.Mutex
		woke := make(chan struct{})
		go func() {
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
			close(woke)
		}()
		waitUntil(t, "waiter enqueued", func() bool { return cv.Len() == 1 })
		select {
		case <-woke:
			t.Fatal("spurious wake-up: Wait returned before any notify")
		default:
		}
		cv.NotifyOne(nil)
		select {
		case <-woke:
		case <-time.After(10 * time.Second):
			t.Fatal("waiter never woke")
		}
	})
}

func TestNotifyBeforeWaitIsLost(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	var st CVStats
	cv := New(e, Options{})
	cv.SetStats(&st)
	if cv.NotifyOne(nil) {
		t.Fatal("NotifyOne on empty queue reported a wake")
	}
	if cv.NotifyAll(nil) != 0 {
		t.Fatal("NotifyAll on empty queue woke someone")
	}
	if st.NotifyEmpty.Load() != 2 {
		t.Fatalf("NotifyEmpty = %d, want 2", st.NotifyEmpty.Load())
	}
	// Condvar (not semaphore) semantics: a later Wait must block.
	var m syncx.Mutex
	woke := make(chan struct{})
	go func() {
		m.Lock()
		cv.WaitLocked(&m)
		m.Unlock()
		close(woke)
	}()
	waitUntil(t, "waiter enqueued", func() bool { return cv.Len() == 1 })
	select {
	case <-woke:
		t.Fatal("Wait returned from a pre-wait notify")
	case <-time.After(30 * time.Millisecond):
	}
	cv.NotifyOne(nil)
	<-woke
}

func TestNoSpuriousWakeupsUnderStress(t *testing.T) {
	// The Section 3.4 claim: wakes == notifies, always. Park waiters,
	// notify exactly k of n, observe exactly k wakes.
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		cv := New(e, Options{})
		var m syncx.Mutex
		const n, k = 8, 5
		var woken atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Lock()
				cv.WaitLocked(&m)
				m.Unlock()
				woken.Add(1)
			}()
		}
		waitUntil(t, "all enqueued", func() bool { return cv.Len() == n })
		for i := 0; i < k; i++ {
			if !cv.NotifyOne(nil) {
				t.Fatal("NotifyOne found empty queue unexpectedly")
			}
		}
		waitUntil(t, "k wakes", func() bool { return woken.Load() == k })
		time.Sleep(20 * time.Millisecond) // grace period for spurious wakes
		if got := woken.Load(); got != k {
			t.Fatalf("woken = %d, want exactly %d", got, k)
		}
		if got := cv.Len(); got != n-k {
			t.Fatalf("queue length = %d, want %d", got, n-k)
		}
		cv.NotifyAll(nil)
		wg.Wait()
	})
}

func TestFIFOWakeOrder(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	order := make(chan int, 4)
	for i := 0; i < 4; i++ {
		i := i
		go func() {
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
			order <- i
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == i+1 })
	}
	for i := 0; i < 4; i++ {
		cv.NotifyOne(nil)
		if got := <-order; got != i {
			t.Fatalf("wake %d was goroutine %d (want FIFO)", i, got)
		}
	}
}

func TestNotifyAllWakesExactlyAll(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		cv := New(e, Options{})
		var m syncx.Mutex
		const n = 7
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Lock()
				cv.WaitLocked(&m)
				m.Unlock()
			}()
		}
		waitUntil(t, "all enqueued", func() bool { return cv.Len() == n })
		if got := cv.NotifyAll(nil); got != n {
			t.Fatalf("NotifyAll = %d, want %d", got, n)
		}
		wg.Wait()
		if cv.Len() != 0 {
			t.Fatalf("queue not empty after NotifyAll")
		}
	})
}

func TestCPSWaitWithLockSync(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	contRan := make(chan bool, 1)
	go func() {
		m.Lock()
		s := syncx.NewLockSync(&m)
		cv.Wait(s, func(inner syncx.Sync) {
			contRan <- m.Locked() // continuation must hold the lock
		})
	}()
	waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
	cv.NotifyOne(nil)
	if held := <-contRan; !held {
		t.Fatal("continuation ran without the lock")
	}
	if m.Locked() {
		t.Fatal("lock leaked after continuation")
	}
}

func TestCPSWaitNilContinuationSkipsReacquire(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	done := make(chan struct{})
	go func() {
		m.Lock()
		cv.Wait(syncx.NewLockSync(&m), nil)
		// Empty-continuation fast path: lock NOT re-acquired.
		if m.Locked() {
			t.Error("lock re-acquired despite nil continuation")
		}
		close(done)
	}()
	waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
	cv.NotifyOne(nil)
	<-done
}

func TestTransactionalProducerConsumerCPS(t *testing.T) {
	// Full CPS use from a transaction: the waiter's first half runs in a
	// txn, the continuation in a fresh txn.
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		cv := New(e, Options{})
		data := stm.NewVar(e, 0)
		got := make(chan int, 1)
		go func() {
			e.MustAtomic(func(tx *stm.Tx) {
				if stm.Read(tx, data) != 0 {
					got <- stm.Read(tx, data)
					return
				}
				s := syncx.NewTxnSync(tx)
				cv.Wait(s, func(inner syncx.Sync) {
					got <- stm.Read(inner.Tx(), data)
				})
			})
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
		e.MustAtomic(func(tx *stm.Tx) {
			stm.Write(tx, data, 42)
			cv.NotifyOne(tx)
		})
		select {
		case v := <-got:
			if v != 42 {
				t.Fatalf("continuation read %d, want 42", v)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("continuation never ran")
		}
	})
}

func TestNotifyDeferredUntilCommit(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		cv := New(e, Options{})
		var m syncx.Mutex
		var woken atomic.Bool
		go func() {
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
			woken.Store(true)
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
		e.MustAtomic(func(tx *stm.Tx) {
			cv.NotifyOne(tx)
			if tx.Attempt() == 0 && !tx.Serial() {
				// Inside the (not yet committed) transaction the waiter
				// must still be parked.
				time.Sleep(20 * time.Millisecond)
				if woken.Load() {
					t.Error("waiter woke before the notifier committed")
				}
			}
		})
		waitUntil(t, "post-commit wake", func() bool { return woken.Load() })
	})
}

func TestNotifyFromCancelledTxnWakesNobody(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		cv := New(e, Options{})
		var m syncx.Mutex
		var woken atomic.Bool
		go func() {
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
			woken.Store(true)
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
		errStop := errTest("stop")
		if err := e.Atomic(func(tx *stm.Tx) {
			cv.NotifyOne(tx)
			tx.Cancel(errStop)
		}); err != errStop {
			t.Fatalf("err = %v", err)
		}
		time.Sleep(30 * time.Millisecond)
		if woken.Load() {
			t.Fatal("cancelled transaction's notify woke the waiter")
		}
		// The dequeue was rolled back too: the waiter must still be
		// reachable by a real notify.
		if !cv.NotifyOne(nil) {
			t.Fatal("waiter vanished from the queue after the aborted notify")
		}
		waitUntil(t, "wake", func() bool { return woken.Load() })
	})
}

type errTest string

func (e errTest) Error() string { return string(e) }

func TestWaitTxRecheckLoop(t *testing.T) {
	// The manual-refactoring pattern (Section 5.3): transactional bounded
	// buffer built with WaitTx re-check loops.
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		const capacity, items = 4, 500
		buf := stm.NewVar(e, []int{})
		notEmpty := New(e, Options{})
		notFull := New(e, Options{})

		put := func(x int) {
			for {
				done := false
				e.MustAtomic(func(tx *stm.Tx) {
					done = false
					b := stm.Read(tx, buf)
					if len(b) < capacity {
						nb := make([]int, len(b), len(b)+1)
						copy(nb, b)
						stm.Write(tx, buf, append(nb, x))
						notEmpty.NotifyOne(tx)
						done = true
						return
					}
					notFull.WaitTx(tx)
				})
				if done {
					return
				}
			}
		}
		get := func() int {
			for {
				v, done := 0, false
				e.MustAtomic(func(tx *stm.Tx) {
					done = false
					b := stm.Read(tx, buf)
					if len(b) > 0 {
						v = b[0]
						stm.Write(tx, buf, b[1:])
						notFull.NotifyOne(tx)
						done = true
						return
					}
					notEmpty.WaitTx(tx)
				})
				if done {
					return v
				}
			}
		}

		var sum int64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 1; i <= items; i++ {
				put(i)
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				sum += int64(get())
			}
		}()
		wg.Wait()
		if want := int64(items) * (items + 1) / 2; sum != want {
			t.Fatalf("sum = %d, want %d", sum, want)
		}
	})
}

func TestMixedContexts(t *testing.T) {
	// Waiters under locks, notifier inside a transaction, plus a naked
	// notify — the compatibility matrix of Section 3.2.
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	var woken atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
			woken.Add(1)
		}()
	}
	waitUntil(t, "both enqueued", func() bool { return cv.Len() == 2 })
	e.MustAtomic(func(tx *stm.Tx) { cv.NotifyOne(tx) }) // transactional notify
	cv.NotifyOne(nil)                                   // naked notify
	wg.Wait()
	if woken.Load() != 2 {
		t.Fatalf("woken = %d", woken.Load())
	}
}

func TestNotifyBestPicksHighestTag(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	type wake struct{ id int }
	order := make(chan wake, 3)
	prio := []int{5, 50, 20}
	for i := 0; i < 3; i++ {
		i := i
		go func() {
			m.Lock()
			s := syncx.NewLockSync(&m)
			cv.WaitTagged(s, prio[i], nil)
			order <- wake{i}
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == i+1 })
	}
	score := func(tag any) int64 {
		if tag == nil {
			return -1
		}
		return int64(tag.(int))
	}
	wantOrder := []int{1, 2, 0} // tags 50, 20, 5
	for _, want := range wantOrder {
		if !cv.NotifyBest(nil, score) {
			t.Fatal("NotifyBest found nobody")
		}
		if got := <-order; got.id != want {
			t.Fatalf("NotifyBest woke %d, want %d", got.id, want)
		}
	}
	if cv.NotifyBest(nil, score) {
		t.Fatal("NotifyBest on empty queue woke someone")
	}
}

func TestNotifyBestSkipsNegativeScores(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	done := make(chan struct{})
	go func() {
		m.Lock()
		s := syncx.NewLockSync(&m)
		cv.WaitTagged(s, "skip-me", nil)
		close(done)
	}()
	waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
	if cv.NotifyBest(nil, func(any) int64 { return -1 }) {
		t.Fatal("NotifyBest woke a negative-scored waiter")
	}
	if cv.Len() != 1 {
		t.Fatal("negative-scored waiter was dequeued")
	}
	cv.NotifyOne(nil)
	<-done
}

func TestSPSCNeedsNoRecheckLoop(t *testing.T) {
	// Section 3.4, Oblivious Wake-Ups: "such checks are not required for
	// single-producer/single-consumer patterns". This test uses `if`
	// instead of `for` around the waits; it is only correct because the
	// condvar has no spurious wake-ups.
	e := stm.NewEngine(stm.Config{})
	full := New(e, Options{})
	empty := New(e, Options{})
	var m syncx.Mutex
	slot := 0
	hasItem := false
	const items = 300
	var sum int64
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // producer
		defer wg.Done()
		for i := 1; i <= items; i++ {
			m.Lock()
			if hasItem {
				full.WaitLocked(&m)
			}
			slot, hasItem = i, true
			empty.NotifyOne(nil)
			m.Unlock()
		}
	}()
	go func() { // consumer
		defer wg.Done()
		for i := 0; i < items; i++ {
			m.Lock()
			if !hasItem {
				empty.WaitLocked(&m)
			}
			sum += int64(slot)
			hasItem = false
			full.NotifyOne(nil)
			m.Unlock()
		}
	}()
	wg.Wait()
	if want := int64(items) * (items + 1) / 2; sum != want {
		t.Fatalf("sum = %d, want %d (a spurious or oblivious wake occurred)", sum, want)
	}
}

func TestNodePoolReuse(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	for round := 0; round < 50; round++ {
		done := make(chan struct{})
		go func() {
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
			close(done)
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
		cv.NotifyOne(nil)
		<-done
	}
}

func TestNoSyscallAbortsWithDeferredPost(t *testing.T) {
	// The design claim of Algorithm 5: deferring SEMPOST to commit means
	// a hardware transaction never performs a syscall. (That a syscall
	// inside one does abort it is stm's TestHTMSyscallAbortsToSerial.)
	e := stm.NewEngine(stm.Config{Algorithm: stm.AlgHTM})
	cv := New(e, Options{})
	var m syncx.Mutex
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
		}()
	}
	waitUntil(t, "4 waiters enqueued", func() bool { return cv.Len() == 4 })
	for i := 0; i < 4; i++ {
		e.MustAtomic(func(tx *stm.Tx) { cv.NotifyOne(tx) })
	}
	wg.Wait()
	if got := e.Stats.SyscallAborts.Load(); got != 0 {
		t.Fatalf("deferred post caused %d syscall aborts, want 0", got)
	}
}

func TestHeavyMixedStress(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		cv := New(e, Options{})
		var st CVStats
		cv.SetStats(&st)
		var m syncx.Mutex
		const waiters = 16
		var wg sync.WaitGroup
		for i := 0; i < waiters; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Lock()
				cv.WaitLocked(&m)
				m.Unlock()
			}()
		}
		// Interleave notifiers from all three contexts until drained.
		deadline := time.Now().Add(30 * time.Second)
		for st.Waits.Load() < waiters {
			if time.Now().After(deadline) {
				t.Fatalf("drain stalled: %d/%d woken", st.Waits.Load(), waiters)
			}
			cv.NotifyOne(nil)
			e.MustAtomic(func(tx *stm.Tx) { cv.NotifyOne(tx) })
			cv.NotifyAll(nil)
			time.Sleep(time.Millisecond)
		}
		wg.Wait()
		if st.Waits.Load() != waiters {
			t.Fatalf("Waits = %d, want %d", st.Waits.Load(), waiters)
		}
	})
}

func TestLockCondAdapter(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	c := NewLockCond(New(e, Options{}))
	var m syncx.Mutex
	done := make(chan struct{})
	go func() {
		m.Lock()
		c.Wait(&m)
		m.Unlock()
		close(done)
	}()
	waitUntil(t, "enqueue", func() bool { return c.Waiters() == 1 })
	c.Signal()
	<-done
	// Broadcast path.
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Lock()
			c.Wait(&m)
			m.Unlock()
		}()
	}
	waitUntil(t, "3 enqueued", func() bool { return c.Waiters() == 3 })
	c.Broadcast()
	wg.Wait()
	if c.CondVar() == nil {
		t.Fatal("CondVar() nil")
	}
}

func TestTxCondAdapter(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	tc := NewTxCond(New(e, Options{}))
	flag := stm.NewVar(e, false)
	done := make(chan struct{})
	go func() {
		for {
			ok := false
			e.MustAtomic(func(tx *stm.Tx) {
				ok = false
				if stm.Read(tx, flag) {
					ok = true
					return
				}
				tc.Wait(tx)
			})
			if ok {
				close(done)
				return
			}
		}
	}()
	waitUntil(t, "enqueue", func() bool { return tc.CondVar().Len() == 1 })
	e.MustAtomic(func(tx *stm.Tx) {
		stm.Write(tx, flag, true)
		tc.Signal(tx)
	})
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("transactional waiter never finished")
	}
	// Broadcast with nobody waiting: no-op.
	e.MustAtomic(func(tx *stm.Tx) { tc.Broadcast(tx) })
}
