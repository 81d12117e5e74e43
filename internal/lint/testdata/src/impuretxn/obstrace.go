// Fixture pinning the impuretxn rule for trace emission: direct
// obs.Tracer emission inside an optimistic body records events of
// attempts that may abort; tx.Trace is the attempt-buffered API and is
// exempt, as are emissions from commit handlers.
package impuretxn

import (
	"repro/internal/obs"
	"repro/internal/stm"
)

func badTrace(e *stm.Engine, tr *obs.Tracer) {
	e.MustAtomic(func(tx *stm.Tx) {
		tr.Emit(1, obs.EvCVEnqueue, 0, 0)                      // want "obs.Tracer.Emit"
		tr.EmitEvent(obs.Event{Type: obs.EvCVNotify})          // want "obs.Tracer.EmitEvent"
		tx.Trace(obs.EvCVEnqueue, 0, 0)                        // ok: buffered in the attempt
		tx.OnCommit(func() { tr.Emit(1, obs.EvCVWake, 0, 0) }) // ok: handler runs post-commit
	})
}

func badFlowTrace(e *stm.Engine, tr *obs.Tracer) {
	e.MustAtomic(func(tx *stm.Tx) {
		tr.EmitFlow(1, obs.EvWakePost, 7, 0, 0) // want "obs.Tracer.EmitFlow"
		tx.TraceFlow(obs.EvWakeTxn, 7, 0, 0)    // ok: buffered in the attempt
	})
}
