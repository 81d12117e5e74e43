package sem

import (
	"testing"
	"time"
)

// The adaptive spin budget: deterministic tuner envelope, and the
// regression the ISSUE asks for — a waiter with no incoming post parks
// instead of busy-waiting, and a slow hand-off decays the budget.
func TestSpinBudgetTuner(t *testing.T) {
	s := NewBinary()
	if got := s.spin.Load(); got != 0 {
		t.Fatalf("fresh semaphore has spin budget %d, want 0", got)
	}
	// On a single-P runtime the budget must pin to zero regardless of
	// hand-off latency: the Gosched-polled spin can never overlap a
	// poster there (the ISSUE's GOMAXPROCS==1 CPU-burn fix).
	s.procs.Store(1)
	s.spin.Store(spinLimit)
	s.tuneSpin(time.Microsecond)
	if got := s.spin.Load(); got != 0 {
		t.Fatalf("budget = %d after fast hand-off at procs==1, want pinned 0", got)
	}
	// With parallelism the adaptive envelope applies.
	s.procs.Store(4)
	// Fast hand-offs grow the budget geometrically up to the cap.
	prev := int32(0)
	for i := 0; i < 10; i++ {
		s.tuneSpin(time.Microsecond)
		b := s.spin.Load()
		if b <= prev && prev < spinLimit {
			t.Fatalf("budget did not grow on fast hand-off: %d -> %d", prev, b)
		}
		if b > spinLimit {
			t.Fatalf("budget %d exceeds spinLimit %d", b, spinLimit)
		}
		prev = b
	}
	if prev != spinLimit {
		t.Fatalf("budget = %d after 10 fast hand-offs, want cap %d", prev, spinLimit)
	}
	// Slow hand-offs halve it back to zero.
	for i := 0; i < 10; i++ {
		s.tuneSpin(time.Millisecond)
	}
	if got := s.spin.Load(); got != 0 {
		t.Fatalf("budget = %d after sustained slow hand-offs, want 0", got)
	}
}

// spinWait respects its budget: with no signal it returns false after a
// bounded number of polls; a signal already in the channel is consumed.
func TestSpinWaitBounded(t *testing.T) {
	w := &waiter{ch: make(chan struct{}, 1)}
	start := time.Now()
	if spinWait(w, spinLimit) {
		t.Fatal("spinWait reported a signal on an empty channel")
	}
	if d := time.Since(start); d > time.Second {
		t.Fatalf("spinWait(%d) took %v — unbounded spin", spinLimit, d)
	}
	w.ch <- struct{}{}
	if !spinWait(w, 1) {
		t.Fatal("spinWait missed a buffered signal")
	}
}

// A waiter that spins and finds nothing must park (descheduled, not
// burning a core), and the long park must decay the budget.
func TestSpinThenParkNoBusyWait(t *testing.T) {
	s := NewBinary()
	st := &Stats{}
	s.SetStats(st)
	s.spin.Store(spinLimit) // prime the budget as if hand-offs had been fast

	done := make(chan struct{})
	go func() {
		s.Wait()
		close(done)
	}()
	waitUntil(t, func() bool { return s.Waiters() == 1 })
	// No post is coming: the waiter must end up blocked in a park, not
	// spinning. Give the spin phase ample time to exhaust, then check
	// that the wait descheduled.
	time.Sleep(10 * time.Millisecond)
	if got := st.Blocks.Load(); got != 1 {
		t.Fatalf("Blocks = %d while no post arrives, want 1 (waiter must park)", got)
	}
	if got := st.SpinWaits.Load(); got != 0 {
		t.Fatalf("SpinWaits = %d with no post, want 0", got)
	}
	s.Post()
	<-done
	// The park lasted ~10ms >> spinParkThreshold: the budget must decay.
	if got := s.spin.Load(); got >= spinLimit {
		t.Errorf("spin budget %d did not decay after a %v park", got, 10*time.Millisecond)
	}
	if st.ParkNanos.Count() != 1 {
		t.Errorf("ParkNanos count = %d, want 1 (park observed)", st.ParkNanos.Count())
	}
}
