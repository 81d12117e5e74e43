package stm

import (
	"sync"
	"sync/atomic"
	"testing"
)

func TestAtomicReadBasic(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 41)
		got := 0
		if err := e.AtomicRead(func(tx *Tx) {
			got = Read(tx, v)
		}); err != nil {
			t.Fatal(err)
		}
		if got != 41 {
			t.Fatalf("got %d", got)
		}
	})
}

func TestAtomicReadWritePanics(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	v := NewVar(e, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("Write inside AtomicRead did not panic")
		}
	}()
	e.AtomicRead(func(tx *Tx) {
		Write(tx, v, 1)
	})
}

// TestAtomicReadDoesNotAdvanceClock: a commit that wrote nothing draws
// no stamp, whether AtomicRead forbade writes or an Atomic body simply
// made none — the clock and the read Var's orec word stay put.
func TestAtomicReadDoesNotAdvanceClock(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(e *Engine, fn func(*Tx)) error
	}{
		{"AtomicRead", (*Engine).AtomicRead},
		{"Atomic", (*Engine).Atomic},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := newTestEngine(AlgWriteThrough)
			v := NewVar(e, 0)
			e.MustAtomic(func(tx *Tx) { Write(tx, v, 1) })
			before, word := e.Now(), v.base.o.load()
			for i := 0; i < 10; i++ {
				if err := tc.run(e, func(tx *Tx) { _ = Read(tx, v) }); err != nil {
					t.Fatal(err)
				}
			}
			if got := e.Now(); got != before {
				t.Fatalf("clock moved from %d to %d on read-only commits", before, got)
			}
			if got := v.base.o.load(); got != word {
				t.Fatalf("orec word moved from %#x to %#x on read-only commits", word, got)
			}
		})
	}
}

func TestAtomicReadConsistentSnapshot(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		x := NewVar(e, 0)
		y := NewVar(e, 0)
		stop := make(chan struct{})
		var violations atomic.Int64
		var wg sync.WaitGroup
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					sum := 0
					e.AtomicRead(func(tx *Tx) {
						sum = Read(tx, x) + Read(tx, y)
					})
					if sum != 0 {
						violations.Add(1)
					}
				}
			}()
		}
		for i := 1; i <= 400; i++ {
			d := i % 13
			e.MustAtomic(func(tx *Tx) {
				Write(tx, x, Read(tx, x)+d)
				Write(tx, y, Read(tx, y)-d)
			})
		}
		close(stop)
		wg.Wait()
		if v := violations.Load(); v != 0 {
			t.Fatalf("%d torn read-only snapshots", v)
		}
	})
}

func TestAtomicReadWithRetry(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	flag := NewVar(e, false)
	done := make(chan struct{})
	go func() {
		e.AtomicRead(func(tx *Tx) {
			if !Read(tx, flag) {
				Retry(tx)
			}
		})
		close(done)
	}()
	for e.Stats.RetryWaits.Load() == 0 {
	}
	e.MustAtomic(func(tx *Tx) { Write(tx, flag, true) })
	<-done
}

// TestAtomicReadSerialFallbackStillReadOnly: once an AtomicRead has used
// up MaxRetries, the serial fallback keeps the read-only contract — its
// commit leaves the clock alone and a Write inside it panics.
func TestAtomicReadSerialFallbackStillReadOnly(t *testing.T) {
	e := NewEngine(Config{MaxRetries: 1})
	v := NewVar(e, 7)
	before := e.Now()
	runs := 0
	err := e.AtomicRead(func(tx *Tx) {
		runs++
		if !tx.Serial() {
			tx.Restart()
		}
		if got := Read(tx, v); got != 7 {
			t.Errorf("serial read = %d", got)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 {
		t.Fatalf("runs = %d, want 2", runs)
	}
	if got := e.Now(); got != before {
		t.Fatalf("serial read-only commit moved the clock from %d to %d", before, got)
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("Write inside AtomicRead's serial fallback did not panic")
			}
		}()
		e.AtomicRead(func(tx *Tx) {
			if !tx.Serial() {
				tx.Restart()
			}
			Write(tx, v, 8)
		})
	}()
	if got := v.LoadDirect(); got != 7 {
		t.Fatalf("v = %d after a Write in a read-only fallback, want 7", got)
	}
}
