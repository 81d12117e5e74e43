package obs

import "testing"

// The disabled-tracer fast path is the steady state of every instrumented
// operation in the STM/condvar stack, so it must not allocate — verify.sh
// gates on this test.
func TestTraceDisabledNoAlloc(t *testing.T) {
	tr := NewTracer(1024)
	if a := testing.AllocsPerRun(1000, func() {
		tr.Emit(1, EvCVEnqueue, 1, 2)
	}); a != 0 {
		t.Errorf("disabled Emit allocates %.1f times per op", a)
	}
	var nilTr *Tracer
	if a := testing.AllocsPerRun(1000, func() {
		nilTr.Emit(1, EvCVEnqueue, 1, 2)
	}); a != 0 {
		t.Errorf("nil Emit allocates %.1f times per op", a)
	}
}

// The enabled path must not allocate either: appends go into the
// preallocated ring.
func TestTraceEnabledNoAlloc(t *testing.T) {
	tr := NewTracer(1024)
	tr.Enable()
	if a := testing.AllocsPerRun(1000, func() {
		tr.Emit(1, EvCVEnqueue, 1, 2)
	}); a != 0 {
		t.Errorf("enabled Emit allocates %.1f times per op", a)
	}
}

// EmitFlow shares Emit's zero-alloc contract on both the disarmed and
// armed paths — verify.sh's overhead gate runs this alongside the Emit
// tests.
func TestEmitFlowNoAlloc(t *testing.T) {
	tr := NewTracer(1024)
	if a := testing.AllocsPerRun(1000, func() {
		tr.EmitFlow(1, EvWakePost, 42, 1, 2)
	}); a != 0 {
		t.Errorf("disabled EmitFlow allocates %.1f times per op", a)
	}
	var nilTr *Tracer
	if a := testing.AllocsPerRun(1000, func() {
		nilTr.EmitFlow(1, EvWakePost, 42, 1, 2)
	}); a != 0 {
		t.Errorf("nil EmitFlow allocates %.1f times per op", a)
	}
	tr.Enable()
	if a := testing.AllocsPerRun(1000, func() {
		tr.EmitFlow(1, EvWakePost, 42, 1, 2)
	}); a != 0 {
		t.Errorf("enabled EmitFlow allocates %.1f times per op", a)
	}
}

// Histogram.Observe is always on; it must not allocate.
func TestHistogramObserveNoAlloc(t *testing.T) {
	var h Histogram
	if a := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	}); a != 0 {
		t.Errorf("Observe allocates %.1f times per op", a)
	}
}
