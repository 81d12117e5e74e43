// Fixture for the lockorder analyzer: an optimistic transaction body
// holds ownership records while it runs, so parking the goroutine — or
// starting a nested engine-level transaction — inside that window can
// stall or deadlock every conflicting transaction.
package lockorder

import (
	"repro/internal/core"
	"repro/internal/sem"
	"repro/internal/stm"
)

func badDirect(e *stm.Engine, s *sem.Sem) {
	e.MustAtomic(func(tx *stm.Tx) {
		s.Wait() // want "parks the goroutine while the attempt holds ownership records"
	})
}

func badNested(e *stm.Engine) {
	e.MustAtomic(func(tx *stm.Tx) {
		e.MustAtomic(func(tx2 *stm.Tx) {}) // want "nested Engine.MustAtomic inside an optimistic transaction body"
	})
}

// A one-stripe transaction waits for its stripe's orec, which the
// enclosing attempt may hold: it would wait forever.
func badNestedStripe(e *stm.Engine, v *stm.Var[int]) {
	e.MustAtomic(func(tx *stm.Tx) {
		e.AtomicStripe(v.Stripe(), func(tx2 *stm.Tx) {}) // want "nested Engine.AtomicStripe inside an optimistic transaction body"
	})
}

// A one-stripe body holds its orec from start to end: parking in it
// stalls every transaction on the stripe.
func badStripeBody(e *stm.Engine, v *stm.Var[int], s *sem.Sem) {
	e.AtomicStripe(v.Stripe(), func(tx *stm.Tx) {
		stm.Write(tx, v, 1)
		s.Wait() // want "parks the goroutine while the attempt holds ownership records"
	})
}

// The park is two helper calls deep: body → waitDeep1 → waitDeep2 → sem.Wait.
func waitDeep1(s *sem.Sem) { waitDeep2(s) }
func waitDeep2(s *sem.Sem) { s.Wait() }

func badBuried(e *stm.Engine, s *sem.Sem) {
	e.MustAtomic(func(tx *stm.Tx) {
		waitDeep1(s) // want "call to waitDeep1 inside an optimistic transaction body reaches waitDeep2 \(sem\.Wait at .*lockorder\.go:[0-9]+\)"
	})
}

// A nested engine-level transaction hidden in a helper is the same
// hazard in transactional clothing.
func fallbackSync(e *stm.Engine) {
	e.MustAtomic(func(tx *stm.Tx) {})
}

func badBuriedNested(e *stm.Engine) {
	e.MustAtomic(func(tx *stm.Tx) {
		fallbackSync(e) // want "call to fallbackSync inside an optimistic transaction body reaches Engine\.MustAtomic at"
	})
}

// good: flat nesting via tx.Atomic joins the current attempt — the
// sanctioned composition form.
func goodFlat(e *stm.Engine) {
	e.MustAtomic(func(tx *stm.Tx) {
		tx.Atomic(func(tx2 *stm.Tx) {})
	})
}

// good: parking after CommitEarly is the post-commit tail — exactly how
// CondVar.WaitTx itself is built.
func goodPostCommit(e *stm.Engine, s *sem.Sem) {
	e.MustAtomic(func(tx *stm.Tx) {
		tx.CommitEarly()
		s.Wait()
	})
}

// good: a helper that parks only after committing early has no blocking
// effect in its summary either.
func commitThenPark(tx *stm.Tx, s *sem.Sem) {
	tx.CommitEarly()
	s.Wait()
}

func goodBuriedPostCommit(e *stm.Engine, s *sem.Sem) {
	e.MustAtomic(func(tx *stm.Tx) {
		commitThenPark(tx, s)
	})
}

// good: relaxed transactions are irrevocable and run serially; blocking
// is legal there.
func goodRelaxed(e *stm.Engine, s *sem.Sem) {
	_ = e.AtomicRelaxed(func(tx *stm.Tx) {
		s.Wait()
	})
}

// good: the transactional waits are effect-free by construction.
func goodWaitTx(e *stm.Engine, cv *core.CondVar) {
	e.MustAtomic(func(tx *stm.Tx) {
		cv.WaitTx(tx)
	})
}

// good: an OnCommit handler runs after the attempt has won.
func goodHandler(e *stm.Engine, s *sem.Sem) {
	e.MustAtomic(func(tx *stm.Tx) {
		tx.OnCommit(func() { s.Wait() })
	})
}
