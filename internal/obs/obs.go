// Package obs is the observability layer of the repository: counters,
// latency histograms and a low-overhead event tracer for the STM/condvar
// stack.
//
// The paper's evaluation (Section 5) reasons from end-to-end wall clock;
// the quantities that explain those numbers — abort storms, wake-up
// latency, serial-fallback episodes — are invisible in aggregate
// counters. This package holds those counters and adds the two missing
// instruments:
//
//   - Counter: the monotonically increasing atomic counter every layer's
//     stats structs are built from.
//   - Histogram: an atomic log2-bucketed histogram, cheap enough to
//     stay enabled in benchmarks alongside Counter.
//   - Tracer: a sharded fixed-size ring-buffer event tracer recording the
//     full transaction/condvar/semaphore lifecycle, with a Chrome
//     trace_event JSON exporter (chrome://tracing, Perfetto).
//
// Tracing is commit-deferred-safe by design: events emitted inside an
// optimistic transaction body go through stm.Tx.Trace, which buffers them
// in the attempt and discards them on abort — mirroring the paper's
// SEMPOST deferral (Algorithm 5 line 9). The exported trace therefore
// never shows effects of attempts that logically never ran; an aborted
// attempt appears only as its terminal txn.abort event with a reason.
//
// Everything in this package is nil-safe: methods on a nil *Tracer are
// no-ops, so instrumented code needs no nil guards on its fast paths.
package obs
