package stm

import (
	"testing"
	"time"

	"repro/internal/fault"
)

// stripePair returns two Vars that share one orec (NewVarInStripe) on a
// fresh engine with a large orec table, and a third Var with an orec of
// its own.
func stripePair(t *testing.T, e *Engine) (a, b, c *Var[int]) {
	t.Helper()
	a = NewVar(e, 0)
	b = NewVarInStripe(a, 0)
	c = NewVar(e, 0)
	if a.base.o != b.base.o {
		t.Fatal("NewVarInStripe placed the Var on its own orec")
	}
	if c.base.o == a.base.o {
		t.Fatal("a plain NewVar collided with the stripe in a 64Ki table")
	}
	return a, b, c
}

// A commit that writes both Vars of a stripe acquires one orec (one
// OrecAcquire hook draw, in write-through at encounter and in HTM at
// commit), draws one stamp and leaves both Vars at it.
func TestStripeCommitLocksOneOrec(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			e := NewEngine(Config{Algorithm: alg, OrecCount: 1 << 16})
			a, b, _ := stripePair(t, e)
			in := fault.New(1) // armed with no rule: every hook draws, none fires
			in.Arm()
			e.SetFault(in)
			before := e.Now()
			e.MustAtomic(func(tx *Tx) {
				Write(tx, a, Read(tx, a)+1)
				Write(tx, b, Read(tx, b)+1)
			})
			if got := in.Drawn(fault.OrecAcquire); got != 1 {
				t.Errorf("a commit writing both Vars of one stripe acquired %d orecs, want 1", got)
			}
			if got := e.Now() - before; got != 1 {
				t.Errorf("the commit drew %d stamps, want 1", got)
			}
			if a.LoadDirect() != 1 || b.LoadDirect() != 1 {
				t.Errorf("a, b = %d, %d after the commit, want 1, 1", a.LoadDirect(), b.LoadDirect())
			}
		})
	}
}

// A writer of one Var of a stripe conflicts with a reader of the other:
// the reader's first attempt, overtaken by a commit to its read's
// stripe-mate before it commits a write elsewhere, fails validation and
// runs again.
func TestStripeWriterConflictsWithReader(t *testing.T) {
	for _, alg := range allAlgorithms {
		t.Run(alg.String(), func(t *testing.T) {
			e := NewEngine(Config{Algorithm: alg, OrecCount: 1 << 16})
			a, b, c := stripePair(t, e)
			step := make(chan struct{})
			go func() {
				<-step
				e.MustAtomic(func(tx *Tx) { Write(tx, b, 1) })
				step <- struct{}{}
			}()
			attempts := 0
			e.MustAtomic(func(tx *Tx) {
				attempts++
				_ = Read(tx, a)
				if attempts == 1 {
					// cvlint:ignore impuretxn the hand-off runs once, on the attempt the competing commit must overtake
					step <- struct{}{}
					<-step
				}
				Write(tx, c, 1)
			})
			if attempts != 2 {
				t.Errorf("reader of a ran %d attempts around a commit to b, want 2 (a conflict, then a clean run)", attempts)
			}
		})
	}
}

// A Retry whose read set holds one Var of a stripe is woken by a commit
// that writes only the other: retriers sleep per orec.
func TestStripeRetryWokenByStripeMate(t *testing.T) {
	e := NewEngine(Config{OrecCount: 1 << 16})
	a, b, _ := stripePair(t, e)
	attempts := 0
	done := make(chan struct{})
	go func() {
		defer close(done)
		e.MustAtomic(func(tx *Tx) {
			attempts++
			_ = Read(tx, a)
			if attempts == 1 {
				Retry(tx)
			}
		})
	}()
	for e.Stats.RetryWaits.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	e.MustAtomic(func(tx *Tx) { Write(tx, b, 1) })
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a commit to b did not wake a Retry that read a, its stripe-mate")
	}
	if attempts != 2 {
		t.Errorf("retrier ran %d attempts, want 2", attempts)
	}
}
