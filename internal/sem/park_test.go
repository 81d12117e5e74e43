package sem

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// A blocked Wait observes its park duration and emits park/unpark trace
// events; a fast-path Wait observes nothing.
func TestParkInstrumentation(t *testing.T) {
	s := NewBinary()
	st := &Stats{}
	s.SetStats(st)
	tr := obs.NewTracer(1024)
	tr.Enable()
	s.SetTrace(tr, 42)

	// Fast path: permit banked, no park.
	s.Post()
	s.Wait()
	if st.ParkNanos.Count() != 0 {
		t.Fatalf("fast-path Wait observed a park: %v", st.ParkNanos.Count())
	}

	// Blocked path.
	done := make(chan struct{})
	go func() {
		s.Wait()
		close(done)
	}()
	for s.Waiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(2 * time.Millisecond)
	s.Post()
	<-done

	if st.ParkNanos.Count() != 1 {
		t.Fatalf("ParkNanos count = %d, want 1", st.ParkNanos.Count())
	}
	if st.ParkNanos.Max() < int64(2*time.Millisecond) {
		t.Errorf("park duration = %dns, want >= 2ms", st.ParkNanos.Max())
	}
	var park, unpark int
	for _, ev := range tr.Events() {
		if ev.Lane != 42 {
			t.Errorf("event on lane %d, want 42: %+v", ev.Lane, ev)
		}
		switch ev.Type {
		case obs.EvSemPark:
			park++
		case obs.EvSemUnpark:
			unpark++
			if ev.Dur <= 0 {
				t.Errorf("unpark span has no duration: %+v", ev)
			}
		}
	}
	if park != 1 || unpark != 1 {
		t.Errorf("park/unpark events = %d/%d, want 1/1", park, unpark)
	}
}

// WaitTimeout observes the park on the timeout path too.
func TestParkTimeout(t *testing.T) {
	s := NewBinary()
	st := &Stats{}
	s.SetStats(st)
	if s.WaitTimeout(5 * time.Millisecond) {
		t.Fatal("WaitTimeout succeeded with no permit")
	}
	if st.ParkNanos.Count() != 1 {
		t.Fatalf("ParkNanos count = %d, want 1", st.ParkNanos.Count())
	}
	if st.Timeouts.Load() != 1 {
		t.Fatalf("Timeouts = %d, want 1", st.Timeouts.Load())
	}
}

// Without a stats sink or tracer, parkStart still stamps a time — the
// spin-budget tuner needs the hand-off latency regardless of
// instrumentation — but parkEnd must not observe anything, and a zero
// t0 stays a safe no-op.
func TestParkStartStampsUninstrumented(t *testing.T) {
	s := NewBinary()
	if t0 := s.parkStart(); t0.IsZero() {
		t.Fatal("parkStart returned the zero time; the spin tuner needs a stamp")
	}
	s.parkEnd(time.Time{})   // zero t0: must be a no-op, not a panic
	s.parkEnd(s.parkStart()) // no sink: must observe nothing
}
