package stm

import (
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// The serial gate (engine.go) is a distributed reader indicator: an
// optimistic attempt raises its slot's reader count and then checks
// serialPending; a serial transaction sets serialPending and then waits
// for every slot to drain. These tests drive its two exclusion rules
// with channels and serialPending, never wall time. Where a test must
// show that something does NOT happen while a party is held, it gives
// the would-be violator a bounded number of scheduler yields: the
// correct gate can never fail that check, and a gate missing either half
// of the protocol fails it at once at GOMAXPROCS 1 (the violator runs
// without blocking) and within a few yields above.

// heldYields is how many scheduler yields a held party's would-be
// violator gets to show itself.
const heldYields = 200

// expectHeld yields heldYields times and fails the test if any of the
// channels closes meanwhile.
func expectHeld(t *testing.T, what string, chs ...<-chan struct{}) {
	t.Helper()
	for i := 0; i < heldYields; i++ {
		for _, ch := range chs {
			select {
			case <-ch:
				t.Fatal(what)
			default:
			}
		}
		runtime.Gosched()
	}
}

// A serial transaction waits out an optimistic writer already inside
// the gate, and an attempt that arrives while the serial one is pending
// waits for it too. The writer has written a (in place, on the
// write-through engine) but not yet b when the serial transaction asks
// for the gate; the serial body must see both writes or neither, and
// must run before the late attempt. Without the scan the serial body
// runs at once; without the late attempt's serialPending check its body
// runs at once.
func TestSerialGateWaitsOutInFlightWriter(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		a, b, c := NewVar(e, 0), NewVar(e, 0), NewVar(e, 0)

		inside, proceed, writerDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(writerDone)
			first := true
			e.MustAtomic(func(tx *Tx) {
				Write(tx, a, Read(tx, a)+1)
				if first {
					first = false
					close(inside)
					<-proceed
				}
				Write(tx, b, Read(tx, b)+1)
			})
		}()
		<-inside

		serialRan, serialDone := make(chan struct{}), make(chan struct{})
		var sa, sb int
		go func() {
			defer close(serialDone)
			_ = e.AtomicRelaxed(func(tx *Tx) {
				close(serialRan)
				sa, sb = Read(tx, a), Read(tx, b)
			})
		}()
		for !e.serialPending.Load() {
			select {
			case <-serialRan:
				t.Fatal("the serial transaction ran while an optimistic writer was inside the gate")
			default:
				runtime.Gosched()
			}
		}

		lateRan, lateDone := make(chan struct{}), make(chan struct{})
		var lateAfterSerial bool
		go func() {
			defer close(lateDone)
			var once sync.Once
			e.MustAtomic(func(tx *Tx) {
				once.Do(func() {
					select {
					case <-serialRan:
						lateAfterSerial = true
					default:
					}
					close(lateRan)
				})
				Write(tx, c, Read(tx, c)+1)
			})
		}()

		expectHeld(t, "the serial transaction or a late attempt ran while an optimistic writer was inside the gate", serialRan, lateRan)
		close(proceed)
		<-writerDone
		<-serialDone
		<-lateDone
		if sa != 1 || sb != 1 {
			t.Errorf("serial transaction saw a=%d b=%d, want the writer's whole commit (1, 1)", sa, sb)
		}
		if !lateAfterSerial {
			t.Error("an attempt that arrived while the serial transaction was pending ran before it")
		}
		assertGateIdle(t, e)
	})
}

// An attempt that arrives while a serial transaction is running does not
// enter until that transaction ends. Without the attempt's serialPending
// check it enters at once: the serial transaction has already scanned
// past its slot.
func TestSerialGateHoldsLateArrival(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 0)
		inSerial, release, serialDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var finished atomic.Bool
		go func() {
			defer close(serialDone)
			_ = e.AtomicRelaxed(func(tx *Tx) {
				close(inSerial)
				<-release
				Write(tx, v, 1)
				finished.Store(true)
			})
		}()
		<-inSerial

		calling, ran, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
		var sawFinished bool
		var seen int
		go func() {
			defer close(done)
			var once sync.Once
			close(calling)
			e.MustAtomic(func(tx *Tx) {
				once.Do(func() {
					sawFinished = finished.Load()
					close(ran)
				})
				seen = Read(tx, v)
			})
		}()
		<-calling
		expectHeld(t, "an optimistic attempt entered while a serial transaction was running", ran)
		close(release)
		<-serialDone
		<-done
		if !sawFinished || seen != 1 {
			t.Errorf("late attempt ran with serial finished=%v and read %d, want true and 1", sawFinished, seen)
		}
		assertGateIdle(t, e)
	})
}

// More goroutines than gate slots, so slots are shared, mixing every way
// in and out of the gate: Atomic, AtomicRead, AtomicRelaxed, CommitEarly
// (with and without a user panic after it), Cancel and user panics. a and
// b move together in every committed transaction; at the end both equal
// the number of committed increments, the per-slot commit counters add
// up, and every slot's reader count is back to zero.
func TestSerialGateStress(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		a, b := NewVar(e, 0), NewVar(e, 0)
		errCancel := errors.New("cancelled")
		var incs, commits, earlies atomic.Int64

		add := func(tx *Tx) {
			av, bv := Read(tx, a), Read(tx, b)
			if av != bv {
				t.Errorf("torn snapshot: a=%d b=%d", av, bv)
			}
			Write(tx, a, av+1)
			Write(tx, b, bv+1)
		}
		// recovered runs f and reports whether it panicked with "user".
		recovered := func(f func()) (hit bool) {
			defer func() {
				if r := recover(); r != nil {
					if r != "user" {
						panic(r)
					}
					hit = true
				}
			}()
			f()
			return false
		}
		ops := []func(){
			func() { // optimistic increment
				e.MustAtomic(add)
				incs.Add(1)
				commits.Add(1)
			},
			func() { // read-only check
				e.AtomicRead(func(tx *Tx) {
					if av, bv := Read(tx, a), Read(tx, b); av != bv {
						t.Errorf("torn read-only snapshot: a=%d b=%d", av, bv)
					}
				})
				commits.Add(1)
			},
			func() { // relaxed increment
				_ = e.AtomicRelaxed(add)
				incs.Add(1)
				commits.Add(1)
			},
			func() { // increment, then the rest of the block after an early commit
				e.MustAtomic(func(tx *Tx) {
					add(tx)
					tx.CommitEarly()
				})
				incs.Add(1)
				commits.Add(1)
				earlies.Add(1)
			},
			func() { // a user panic after an early commit keeps the commit
				if !recovered(func() {
					e.MustAtomic(func(tx *Tx) {
						add(tx)
						tx.CommitEarly()
						panic("user")
					})
				}) {
					t.Error("panic after CommitEarly did not propagate")
				}
				incs.Add(1)
				commits.Add(1)
				earlies.Add(1)
			},
			func() { // Cancel rolls the increment back (a no-op in the serial fallback, which cannot cancel)
				err := e.Atomic(func(tx *Tx) {
					if tx.Serial() {
						return
					}
					add(tx)
					tx.Cancel(errCancel)
				})
				switch err {
				case nil:
					commits.Add(1)
				case errCancel:
				default:
					t.Errorf("Atomic returned %v", err)
				}
			},
			func() { // a user panic rolls the increment back (serial fallback: commit nothing instead)
				if recovered(func() {
					e.MustAtomic(func(tx *Tx) {
						if tx.Serial() {
							return
						}
						add(tx)
						panic("user")
					})
				}) {
					return
				}
				commits.Add(1)
			},
		}

		workers, per := 2*gateSlots+3, 60
		if testing.Short() {
			per = 20
		}
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					ops[(w+i)%len(ops)]()
				}
			}()
		}
		wg.Wait()

		if av, bv := a.LoadDirect(), b.LoadDirect(); av != bv || int64(av) != incs.Load() {
			t.Errorf("a=%d b=%d after %d committed increments", av, bv, incs.Load())
		}
		if got, want := e.Stats.Commits.Load(), commits.Load(); got != want {
			t.Errorf("Stats.Commits = %d, want %d", got, want)
		}
		if got, want := e.Stats.EarlyCommits.Load(), earlies.Load(); got != want {
			t.Errorf("Stats.EarlyCommits = %d, want %d", got, want)
		}
		assertGateIdle(t, e)
	})
}

// assertGateIdle checks that no attempt is counted in any gate slot and
// no serial transaction is pending.
func assertGateIdle(t *testing.T, e *Engine) {
	t.Helper()
	for i := range e.slots {
		if n := e.slots[i].readers.Load(); n != 0 {
			t.Errorf("gate slot %d holds %d readers at rest", i, n)
		}
	}
	if e.serialPending.Load() {
		t.Error("serialPending set at rest")
	}
}
