package stm

import (
	"time"

	"repro/internal/obs"
)

// This file is the STM side of the observability layer (internal/obs):
// the commit-deferred trace-emission API and the lifecycle bookkeeping
// that feeds TMStats.CommitNanos (sampled: see Engine.beginClock).
//
// The invariant mirrors Algorithm 5's SEMPOST deferral: nothing an
// optimistic attempt does may become observable unless the attempt
// commits. Trace events are observable effects, so Tx.Trace buffers them
// in the attempt (tx.pend) and the commit path flushes them; rollback
// discards them and emits only the terminal txn.abort event. The cvlint
// impuretxn analyzer enforces the corresponding source-level rule: direct
// obs.Tracer emission inside a transaction body is a misuse, Tx.Trace is
// the sanctioned API.

// SetTracer attaches an event tracer to the engine (nil detaches). Like
// SetDebugChecks it is intended for setup: attach before the engine is
// shared across goroutines. The disabled-tracer fast path of every
// instrumented operation is one nil check plus one atomic load.
func (e *Engine) SetTracer(tr *obs.Tracer) { e.tracer = tr }

// Tracer returns the attached tracer, or nil. The result is safe to call
// methods on either way (obs methods are nil-safe).
func (e *Engine) Tracer() *obs.Tracer { return e.tracer }

// Trace records a trace event attributed to this transaction, using the
// transaction id as the event's lane. Inside an optimistic attempt the
// event is buffered and reaches the tracer only if the attempt commits;
// an aborted attempt's events are discarded (the trace never shows
// effects of attempts that logically never ran). In serial (irrevocable)
// transactions, and after CommitEarly, the event is emitted immediately —
// such code runs exactly once by construction.
func (tx *Tx) Trace(typ obs.EventType, a, b int64) {
	tr := tx.e.tracer
	if !tr.Enabled() {
		return
	}
	if tx.mode == modeSerial || tx.status != txActive {
		tr.Emit(tx.id, typ, a, b)
		return
	}
	tx.pend = append(tx.pend, obs.Event{TS: tr.Now(), Type: typ, Lane: tx.id, A: a, B: b})
}

// TraceFlow is Trace for causal-flow events: the event carries flow (a
// wakeID) in its Flow field, binding this transaction into the wake flow
// that resumed it. Like Trace it is commit-deferred — buffered with the
// optimistic attempt and discarded on abort — so an aborted continuation
// never claims its wake in the trace. In serial transactions and after
// CommitEarly it emits immediately (such code runs exactly once), which
// is how WaitTx stamps the post-resume flow step on its own lane.
func (tx *Tx) TraceFlow(typ obs.EventType, flow uint64, a, b int64) {
	tr := tx.e.tracer
	if !tr.Enabled() {
		return
	}
	if tx.mode == modeSerial || tx.status != txActive {
		tr.EmitFlow(tx.id, typ, flow, a, b)
		return
	}
	tx.pend = append(tx.pend, obs.Event{TS: tr.Now(), Type: typ, Lane: tx.id, A: a, B: b, Flow: flow})
}

// traceStart mints the attempt its own trace lane and buffers the
// attempt-start event (surfaces only on commit).
func (tx *Tx) traceStart() {
	if tr := tx.e.tracer; tr.Enabled() && tx.mode != modeSerial {
		tx.id = tx.e.txid.Add(1)
		tx.pend = append(tx.pend, obs.Event{TS: tr.Now(), Type: obs.EvTxnStart, Lane: tx.id})
	}
}

// flushTrace publishes the attempt's buffered events.
func (tx *Tx) flushTrace(tr *obs.Tracer) {
	for i := range tx.pend {
		tr.EmitEvent(tx.pend[i])
	}
	tx.pend = tx.pend[:0]
}

// noteCommitted records commit-side observability: the commit-latency
// histogram (for a timed attempt, see Tx.began), and — when tracing —
// the flush of the attempt's buffered events plus a span event covering
// the whole attempt, whose A is the 1-based attempt number. ev selects
// the span type (commit, early-commit, serial).
func (tx *Tx) noteCommitted(ev obs.EventType) {
	var dns int64
	if !tx.began.IsZero() {
		dns = time.Since(tx.began).Nanoseconds()
		tx.e.Stats.CommitNanos.Observe(dns)
	}
	if tr := tx.e.tracer; tr.Enabled() {
		tx.flushTrace(tr)
		tr.EmitEvent(obs.Event{
			TS:   tr.Now() - dns,
			Dur:  dns,
			Type: ev,
			Lane: tx.id,
			A:    int64(tx.attempt) + 1,
		})
	}
}

// traceReason maps an internal abort cause to its exported reason code.
func traceReason(c abortCause) int64 {
	switch c {
	case causeCapacity:
		return obs.AbortCapacity
	case causeSyscall:
		return obs.AbortSyscall
	case causeCancel:
		return obs.AbortCancel
	case causeRetry:
		return obs.AbortRetry
	default:
		return obs.AbortConflict
	}
}

// noteAborted discards the attempt's buffered events and, when tracing,
// emits the terminal abort span (with reason) — the only trace an
// aborted attempt leaves. With no tracer armed it reads no clock.
func (tx *Tx) noteAborted(cause abortCause) {
	tx.pend = tx.pend[:0]
	if tr := tx.e.tracer; tr.Enabled() {
		var dns int64
		if !tx.began.IsZero() { // zero if the tracer was armed mid-attempt
			dns = time.Since(tx.began).Nanoseconds()
		}
		tr.EmitEvent(obs.Event{
			TS:   tr.Now() - dns,
			Dur:  dns,
			Type: obs.EvTxnAbort,
			Lane: tx.id,
			A:    traceReason(cause),
			B:    int64(tx.attempt),
		})
	}
}
