package registry

import (
	"sync/atomic"
	"testing"

	"repro/internal/obs"
)

// The zero-cost-when-off invariant (ISSUE 4 / DESIGN.md §10): putting an
// instrument in the registry must not change what its hot-path
// operations cost. Registration stores a read closure; the instrument
// itself stays a plain atomic, so Inc/Store/Observe allocate nothing and
// the introspection stack adds nothing to them.

func TestRegisteredCounterIncNoAlloc(t *testing.T) {
	r := New()
	var c obs.Counter
	r.RegisterCounter("x_total", "", nil, c.Load)
	if allocs := testing.AllocsPerRun(1000, c.Inc); allocs != 0 {
		t.Fatalf("Counter.Inc after registration allocates %.1f/op", allocs)
	}
}

func TestRegisteredGaugeSetNoAlloc(t *testing.T) {
	r := New()
	var g atomic.Int64
	r.RegisterGauge("x", "", nil, g.Load)
	if allocs := testing.AllocsPerRun(1000, func() { g.Store(7) }); allocs != 0 {
		t.Fatalf("gauge Store after registration allocates %.1f/op", allocs)
	}
}

func TestRegisteredHistogramObserveNoAlloc(t *testing.T) {
	r := New()
	var h obs.Histogram
	r.RegisterHistogram("x_ns", "", nil, h.Snapshot)
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(123) }); allocs != 0 {
		t.Fatalf("Histogram.Observe after registration allocates %.1f/op", allocs)
	}
}
