package stm

import (
	"repro/internal/fault"
	"repro/internal/obs"
)

// This file is the STM side of deterministic fault injection
// (internal/fault). Hook points cover the three places an optimistic
// attempt can be killed or stalled — attempt begin, orec acquisition,
// and pre-commit — so tests and chaos soaks can provoke conflict
// storms, simulated HTM capacity overflows, and adversarially timed
// windows on demand. Serial (irrevocable) transactions are never
// injected: the fallback's unconditional forward progress is what ends
// a provoked storm once a transaction has spent MaxRetries optimistic
// attempts, and injecting it would turn that storm into a livelock.

// SetFault attaches a fault injector to the engine (nil detaches). Like
// SetTracer it is intended for setup: attach before the engine is
// shared. A nil or disarmed injector costs one nil check plus one
// atomic load per hook.
func (e *Engine) SetFault(in *fault.Injector) { e.fault = in }

// Fault returns the attached injector, or nil (nil is safe to use).
func (e *Engine) Fault() *fault.Injector { return e.fault }

// faultAt draws the injector's decision for hook point p on behalf of
// this attempt. Delay decisions stall right here, widening whatever
// window the hook sits in; abort-shaped decisions are returned for the
// caller to translate into its own abort path (see faultPanic).
//
// The nil-injector check inlines into every hook; the draw is out of line.
func (tx *Tx) faultAt(p fault.Point) fault.Decision {
	if tx.e.fault == nil || tx.mode == modeSerial {
		return fault.Decision{}
	}
	return tx.faultDraw(p)
}

func (tx *Tx) faultDraw(p fault.Point) fault.Decision {
	d := tx.e.fault.At(p)
	if d.Action == fault.ActNone {
		return d
	}
	// Direct emission: injection is meta-observability — the record that
	// a fault was injected must survive the abort it causes.
	tx.e.tracer.Emit(tx.id, obs.EvFaultInject, int64(p), int64(d.Action))
	d.Pause()
	return d
}

// faultPanic turns an abort-shaped decision into the attempt's
// non-local exit (recovered by Engine.attemptOnce, which rolls the
// attempt back exactly as for an organic conflict or capacity abort).
// None/delay decisions are no-ops.
func (tx *Tx) faultPanic(d fault.Decision) {
	switch d.Action {
	case fault.ActAbort:
		panic(abortSignal{cause: causeConflict})
	case fault.ActCapacity:
		panic(abortSignal{cause: causeCapacity})
	}
}
