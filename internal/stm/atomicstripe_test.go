package stm

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
)

// A one-stripe transaction (AtomicStripe) locks its stripe's orec before
// its body runs and cannot abort. These tests pin what it refuses (Vars
// outside the stripe, the abort and early-commit entry points), what it
// still draws (fault hooks, delay-only), whom it excludes and is
// excluded by (optimistic writers, readers, Peek, the serial gate), and
// whom its commit wakes (Retry sleepers on the stripe).

// A body that touches a Var outside its stripe, or asks to abort or
// commit early, panics; the panic publishes what the body stored and
// lets the stripe and the gate go, like a serial transaction's panic.
func TestAtomicStripeMisusePanics(t *testing.T) {
	e := NewEngine(Config{OrecCount: 1 << 16})
	a, b, c := stripePair(t, e)
	s := a.Stripe()
	misuse := []struct {
		name, msg string
		body      func(tx *Tx)
	}{
		{"ReadOutside", "Read of a Var outside the stripe", func(tx *Tx) { Read(tx, c) }},
		{"WriteOutside", "Write of a Var outside the stripe", func(tx *Tx) { Write(tx, c, 1) }},
		{"Retry", "one-stripe", func(tx *Tx) { Retry(tx) }},
		{"Restart", "one-stripe", func(tx *Tx) { tx.Restart() }},
		{"Cancel", "one-stripe", func(tx *Tx) { tx.Cancel(errors.New("cancelled")) }},
		{"CommitEarly", "one-stripe", func(tx *Tx) { tx.CommitEarly() }},
	}
	for i, m := range misuse {
		t.Run(m.name, func(t *testing.T) {
			r := func() (r any) {
				defer func() { r = recover() }()
				e.AtomicStripe(s, func(tx *Tx) {
					Write(tx, b, Read(tx, b)+1)
					m.body(tx)
				})
				return nil
			}()
			if msg := fmt.Sprint(r); r == nil || !strings.Contains(msg, m.msg) {
				t.Fatalf("panic %v, want one containing %q", r, m.msg)
			}
			if v, ok := Peek(b); !ok || v != i+1 {
				t.Errorf("Peek(b) = %d, %v after the panic, want %d, true (the store published, the orec released)", v, ok, i+1)
			}
			assertGateIdle(t, e)
			e.AtomicStripe(s, func(tx *Tx) { Write(tx, a, Read(tx, a)+1) })
		})
	}
	if got := a.LoadDirect(); got != len(misuse) {
		t.Errorf("a = %d after %d one-stripe increments, want %d", got, len(misuse), len(misuse))
	}

	other := NewEngine(Config{})
	for name, st := range map[string]Stripe{"zero": {}, "foreign": a.Stripe()} {
		func() {
			defer func() {
				if r := recover(); r == nil {
					t.Errorf("AtomicStripe on a %s stripe did not panic", name)
				}
			}()
			other.AtomicStripe(st, func(*Tx) {})
		}()
	}
}

// The fault hooks TxBegin, OrecAcquire and PreCommit are drawn once per
// one-stripe transaction, but only delays act: with every hook set to
// fire an abort, a capacity abort or a delay, each body runs once and
// commits, and nothing is counted as an abort.
func TestAtomicStripeFaultsDelayOnly(t *testing.T) {
	e := NewEngine(Config{OrecCount: 1 << 16})
	a, b, _ := stripePair(t, e)
	in := fault.New(1)
	in.Set(fault.TxBegin, fault.Rule{Rate: 1, Action: fault.ActAbort})
	in.Set(fault.OrecAcquire, fault.Rule{Rate: 1, Action: fault.ActCapacity})
	in.Set(fault.PreCommit, fault.Rule{Rate: 1, Action: fault.ActDelay, Delay: time.Microsecond})
	in.Arm()
	e.SetFault(in)
	const ops = 10
	runs := 0
	for i := 0; i < ops; i++ {
		e.AtomicStripe(a.Stripe(), func(tx *Tx) {
			runs++
			Write(tx, a, Read(tx, a)+1)
			Write(tx, b, Read(tx, b)-1)
		})
	}
	if runs != ops || a.LoadDirect() != ops || b.LoadDirect() != -ops {
		t.Errorf("%d one-stripe transactions ran their bodies %d times, leaving a=%d b=%d", ops, runs, a.LoadDirect(), b.LoadDirect())
	}
	for _, p := range []fault.Point{fault.TxBegin, fault.OrecAcquire, fault.PreCommit} {
		if d, f := in.Drawn(p), in.Fired(p); d != ops || f != ops {
			t.Errorf("%v: drawn %d, fired %d, want %d and %d", p, d, f, ops, ops)
		}
	}
	if n := e.Stats.Aborts.Load(); n != 0 {
		t.Errorf("injected aborts aborted %d one-stripe transactions, want 0", n)
	}
}

// A one-stripe commit that wrote draws one stamp and stamps the orec
// with it; one that only read draws none and leaves the orec's version
// as it was.
func TestAtomicStripeStamp(t *testing.T) {
	e := NewEngine(Config{OrecCount: 1 << 16})
	a, b, _ := stripePair(t, e)
	s := a.Stripe()
	e.AtomicStripe(s, func(tx *Tx) { Write(tx, b, 1) })
	if now, w := e.Now(), a.base.o.load(); now != 1 || w != packVersion(1) {
		t.Errorf("after a writing one-stripe commit: clock %d, orec word %#x; want 1 and version 1", now, w)
	}
	e.AtomicStripe(s, func(tx *Tx) { _ = Read(tx, a) + Read(tx, b) })
	if now, w := e.Now(), a.base.o.load(); now != 1 || w != packVersion(1) {
		t.Errorf("after a read-only one-stripe commit: clock %d, orec word %#x; want both unchanged", now, w)
	}
}

// One-stripe transactions and optimistic ones move units from one Var of
// a stripe to the other, each storing a poison value into both before
// the final values, so the sum stays constant at every commit and a
// only falls. Atomic, AtomicRead and Peek readers run beside them and
// must never see a poison value or a pair whose sum is off; a Peek
// reader's pair is a Peek of b between two Peeks of a that agree, so
// no move committed in between. The commit counters add up and the gate
// is idle at the end.
func TestAtomicStripeStress(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		const total, poison = 1000, -1 << 40
		a := NewVar(e, total)
		b := NewVarInStripe(a, 0)
		c := NewVar(e, 0)
		s := a.Stripe()
		var commits, moves atomic.Int64
		move := func(tx *Tx) {
			av, bv := Read(tx, a), Read(tx, b)
			Write(tx, a, poison)
			Write(tx, b, poison)
			Write(tx, a, av-1)
			Write(tx, b, bv+1)
		}
		checkPair := func(who string, av, bv int) {
			if av+bv != total {
				t.Errorf("%s saw a torn pair: a=%d b=%d", who, av, bv)
			}
		}
		workers := []func(i int){
			func(int) { // one-stripe mover
				e.AtomicStripe(s, move)
				commits.Add(1)
				moves.Add(1)
			},
			func(int) { // optimistic mover
				e.MustAtomic(move)
				commits.Add(1)
				moves.Add(1)
			},
			func(int) { // optimistic reader that also writes elsewhere
				e.MustAtomic(func(tx *Tx) {
					// Every attempt, doomed or not, reads one snapshot.
					av, bv := Read(tx, a), Read(tx, b)
					checkPair("Atomic", av, bv)
					Write(tx, c, av)
				})
				commits.Add(1)
			},
			func(int) { // read-only reader
				var av, bv int
				_ = e.AtomicRead(func(tx *Tx) { av, bv = Read(tx, a), Read(tx, b) })
				checkPair("AtomicRead", av, bv)
				commits.Add(1)
			},
			func(int) { // Peek reader
				a1, ok1 := Peek(a)
				bv, ok2 := Peek(b)
				a2, ok3 := Peek(a)
				for _, x := range [...]struct {
					v  int
					ok bool
				}{{a1, ok1}, {bv, ok2}, {a2, ok3}} {
					if x.ok && x.v == poison {
						t.Error("Peek returned a poison value, which no commit left")
					}
				}
				if ok1 && ok2 && ok3 && a1 == a2 {
					checkPair("Peek", a1, bv)
				}
			},
		}
		per := 1000
		if testing.Short() {
			per = 200
		}
		var wg sync.WaitGroup
		for _, w := range workers {
			for range 2 {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						w(i)
						if i%16 == 0 {
							runtime.Gosched()
						}
					}
				}()
			}
		}
		wg.Wait()
		if av, bv := a.LoadDirect(), b.LoadDirect(); av+bv != total {
			t.Errorf("a=%d b=%d after %d moves, sum %d, want %d", av, bv, moves.Load(), av+bv, total)
		}
		if got, want := e.Stats.Commits.Load(), commits.Load(); got != want {
			t.Errorf("Stats.Commits = %d, want %d", got, want)
		}
		assertGateIdle(t, e)
	})
}

// The serial gate excludes one-stripe transactions both ways: one that
// arrives while AtomicRelaxed runs waits for it to end, and AtomicRelaxed
// waits out one that is already running, seeing all of its stores.
func TestAtomicStripeExcludedByRelaxed(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		a, b, _ := stripePair(t, e)
		s := a.Stripe()

		inSerial, release, serialDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(serialDone)
			_ = e.AtomicRelaxed(func(tx *Tx) {
				close(inSerial)
				<-release
				Write(tx, a, 1)
			})
		}()
		<-inSerial
		ran, done := make(chan struct{}), make(chan struct{})
		var seen int
		go func() {
			defer close(done)
			e.AtomicStripe(s, func(tx *Tx) {
				close(ran)
				seen = Read(tx, a)
			})
		}()
		expectHeld(t, "a one-stripe transaction ran while AtomicRelaxed was running", ran)
		close(release)
		<-serialDone
		<-done
		if seen != 1 {
			t.Errorf("the one-stripe transaction read a=%d, want the relaxed transaction's 1", seen)
		}

		inStripe, release2, stripeDone := make(chan struct{}), make(chan struct{}), make(chan struct{})
		go func() {
			defer close(stripeDone)
			e.AtomicStripe(s, func(tx *Tx) {
				Write(tx, a, 2)
				close(inStripe)
				<-release2
				Write(tx, b, 2)
			})
		}()
		<-inStripe
		serialRan, serialDone2 := make(chan struct{}), make(chan struct{})
		var sa, sb int
		go func() {
			defer close(serialDone2)
			_ = e.AtomicRelaxed(func(tx *Tx) {
				close(serialRan)
				sa, sb = Read(tx, a), Read(tx, b)
			})
		}()
		for !e.serialPending.Load() {
			runtime.Gosched()
		}
		expectHeld(t, "AtomicRelaxed ran while a one-stripe transaction held the gate", serialRan)
		close(release2)
		<-stripeDone
		<-serialDone2
		if sa != 2 || sb != 2 {
			t.Errorf("AtomicRelaxed read a=%d b=%d, want the whole one-stripe commit (2, 2)", sa, sb)
		}
		assertGateIdle(t, e)
	})
}

// A Retry sleeper that read one Var of a stripe is woken by a one-stripe
// commit that writes the other, and not by one that only reads.
func TestAtomicStripeWakesRetry(t *testing.T) {
	e := NewEngine(Config{OrecCount: 1 << 16})
	a, b, _ := stripePair(t, e)
	attempts := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.MustAtomic(func(tx *Tx) {
			attempts++
			if Read(tx, a) == 0 && attempts == 1 {
				Retry(tx)
			}
		})
	}()
	for e.Stats.RetryWaits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	e.AtomicStripe(a.Stripe(), func(tx *Tx) { _ = Read(tx, b) })
	expectHeld(t, "a read-only one-stripe commit woke a Retry sleeper", done)
	e.AtomicStripe(a.Stripe(), func(tx *Tx) { Write(tx, b, 1) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a one-stripe commit to b did not wake a Retry that read a, its stripe-mate")
	}
	if attempts != 2 {
		t.Errorf("retrier ran %d attempts, want 2", attempts)
	}
}

// A wait cycle shaped like the condvar's, on one stripe: an enqueue that
// writes head and tail, then a dequeue that empties them and registers a
// pre-bound commit handler over one argument. Once the Tx pool is warm
// the cycle allocates nothing. verify.sh runs this in its overhead-guard
// step.
func TestAtomicStripeWaitCycleNoAlloc(t *testing.T) {
	e := NewEngine(Config{})
	if raceEnabled || e.DebugChecks() {
		t.Skip("race detector shadow state and the sanitizer's handler wrapper allocate")
	}
	head := NewVar[*uint64](e, nil)
	tail := NewVarInStripe(head, nil)
	s := head.Stripe()
	var posted uint64
	node := &posted
	enqueue := func(tx *Tx) {
		if Read(tx, tail) == nil {
			Write(tx, head, node)
		}
		Write(tx, tail, node)
	}
	dequeue := func(tx *Tx) {
		n := Read(tx, head)
		Write(tx, head, nil)
		Write(tx, tail, nil)
		tx.PushCommitArg(n, 1)
		tx.OnCommitCall(postArg)
	}
	cycle := func() {
		e.AtomicStripe(s, enqueue)
		e.AtomicStripe(s, dequeue)
	}
	cycle()
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Errorf("one-stripe enqueue+dequeue cycle allocates %.1f times per op", a)
	}
	if posted != 1002 {
		t.Errorf("the dequeue's commit handler ran %d times, want 1002", posted)
	}
}
