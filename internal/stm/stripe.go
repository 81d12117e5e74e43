package stm

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Stripe names one orec of an engine: the unit a one-stripe transaction
// (Engine.AtomicStripe) locks. A Var and every Var created in its stripe
// (NewVarInStripe) share it. The zero Stripe names no orec.
type Stripe struct {
	o *orec
	e *Engine
}

// Stripe returns the stripe v sits on.
func (v *Var[T]) Stripe() Stripe { return Stripe{v.base.o, v.base.eng} }

// AtomicStripe runs fn as a one-stripe transaction: a transaction whose
// every access falls in stripe s. It locks s's orec before fn runs and
// holds it to the end, so fn owns the stripe's Vars outright. A
// transaction that holds its only orec before its first access needs
// none of the optimistic frame: no snapshot, no read log and no
// validation, no undo log, no retry loop. It cannot abort, and fn runs
// exactly once.
//
// Inside fn, Read and Write are plain atomic loads and stores. A Read
// or Write of a Var outside s panics, and so do Retry, Restart, Cancel
// and CommitEarly, which a transaction that cannot abort has no use for.
// Commit handlers, Trace, flat nesting (tx.Atomic) and Saved work as in
// Atomic; OnAbort handlers never run.
//
// It enters the serial gate like any optimistic attempt, so a serial
// transaction (the fallback, AtomicRelaxed) excludes it. A held orec is
// waited out with the engine's backoff: every holder is a transaction
// that runs to its end without waiting for another orec, so the wait
// is finite. The commit stamps the orec from the global clock if fn
// wrote (else restores its version), releases it, wakes the Retry
// sleepers watching it, and then runs the commit handlers. The fault
// hooks TxBegin, OrecAcquire and PreCommit are drawn, but only their
// delays act: there is no attempt to abort.
//
// Like every transaction it must not be started inside an optimistic
// attempt (that attempt may hold s's orec). On AlgHTM engines fn runs
// through MustAtomic instead, as an ordinary transaction with none of
// the checks above: a hardware TM has no one-orec mode, so the
// simulated Haswell keeps its optimistic frame.
func (e *Engine) AtomicStripe(s Stripe, fn func(*Tx)) {
	if s.e != e {
		panic("stm: AtomicStripe on a stripe of another engine (or the zero Stripe)")
	}
	if e.cfg.Algorithm == AlgHTM {
		e.MustAtomic(fn)
		return
	}
	tx := e.lockStripe(s.o)
	done := false
	defer func() {
		if !done {
			// fn panicked. Like a serial transaction's, its stores
			// cannot be undone: publish them and let the stripe go.
			tx.unlockStripe()
		}
	}()
	fn(tx)
	tx.faultAt(fault.PreCommit)
	tx.unlockStripe()
	done = true
	tx.noteCommitted(obs.EvTxnCommit)
	tx.runCommitHandlers()
	tx.count(slotCommits, 1)
	e.recycle(tx)
}

// lockStripe takes a Tx from the pool, admits it through the serial gate
// and locks orec o for it, waiting out any holder.
func (e *Engine) lockStripe(o *orec) *Tx {
	tx := e.pooledTx()
	e.enterGate(tx.slot)
	tx.gateHeld = true
	tx.mode = modeStripe
	tx.attempt = 0
	tx.status = txActive
	tx.depth = 0
	tx.serialHeld = false
	tx.readOnly = false
	tx.stripe = o
	tx.wrote = false
	tx.began = e.beginClock(&tx.sampleLeft)
	tx.pend = tx.pend[:0]
	tx.traceStart() // may mint the id the lock word carries
	tx.faultAt(fault.TxBegin)
	tx.faultAt(fault.OrecAcquire)
	for attempt := 0; ; attempt++ {
		if w := o.load(); !isLocked(w) && o.cas(w, lockWord(tx.id)) {
			tx.stripeVer = versionOf(w)
			return tx
		}
		e.backoff(attempt)
	}
}

// unlockStripe ends a one-stripe transaction's hold on its orec: a new
// stamp if it wrote (so readers and Retry sleepers see the change),
// else the pre-lock version; then the gate.
func (tx *Tx) unlockStripe() {
	e := tx.e
	if tx.wrote {
		tx.stripe.release(e.clock.Add(1))
		if e.retryWatchersActive() {
			e.wakeOrec(tx.stripe)
		}
	} else {
		tx.stripe.release(tx.stripeVer)
	}
	tx.status = txCommitted
	tx.releaseGate()
}

// inStripe panics unless b lies in the stripe this one-stripe
// transaction holds. It inlines into Read and Write.
func (tx *Tx) inStripe(b *varBase, op string) {
	if b.o != tx.stripe {
		tx.outsideStripePanic(op)
	}
}

func (tx *Tx) outsideStripePanic(op string) {
	panic(fmt.Sprintf("stm: %s of a Var outside the stripe a one-stripe transaction (AtomicStripe) holds", op))
}
