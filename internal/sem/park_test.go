package sem

import (
	"testing"
	"time"
)

// A blocked Wait observes its park duration; a fast-path Wait observes
// nothing.
func TestParkInstrumentation(t *testing.T) {
	s := NewBinary()
	st := &Stats{}
	s.SetStats(st)

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

// Without a stats sink a park reads no clock: parkStart returns the
// zero time, and parkEnd treats a zero t0 as a no-op. With a sink it
// stamps.
func TestParkStartUninstrumentedNoClock(t *testing.T) {
	s := NewBinary()
	if t0 := s.parkStart(); !t0.IsZero() {
		t.Fatalf("parkStart with no stats sink = %v, want the zero time", t0)
	}
	s.parkEnd(time.Time{}) // zero t0: must be a no-op, not a panic
	st := &Stats{}
	s.SetStats(st)
	if s.parkStart().IsZero() {
		t.Fatal("parkStart with a stats sink returned the zero time")
	}
	s.parkEnd(time.Time{})
	if n := st.ParkNanos.Count(); n != 0 {
		t.Fatalf("parkEnd(zero) observed %d parks, want 0", n)
	}
}
