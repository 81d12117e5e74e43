package sem

import (
	"runtime"
	"testing"
	"time"
)

// spinOnOneP runs a test body on a single real P with s sampled as
// parallel, so the head waiter's spin is enabled while the scheduling
// order stays deterministic: a waiter that spins yields the P at every
// poll, one that parks runs to its park without yielding.
func spinOnOneP(t *testing.T, s *Sem) {
	t.Helper()
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	s.procs.Store(2)
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

// A head waiter with no post coming spins first, then parks: it must
// end up descheduled, not burning a core, with its park observed.
func TestSpinThenParkNoBusyWait(t *testing.T) {
	s := NewBinary()
	st := &Stats{}
	s.SetStats(st)
	spinOnOneP(t, s)

	done := make(chan struct{})
	go func() {
		s.Wait()
		close(done)
	}()
	for s.Waiters() == 0 {
		runtime.Gosched()
	}
	// The waiter is queued and handed the P back from its first poll:
	// it is spinning, not parked.
	if got := st.Blocks.Load(); got != 0 {
		t.Fatalf("Blocks = %d as the head waiter enqueued, want 0 (head spins first)", got)
	}
	// No post is coming: the spin runs out and the waiter parks.
	waitUntil(t, func() bool { return st.Blocks.Load() == 1 })
	if got := st.SpinWaits.Load(); got != 0 {
		t.Fatalf("SpinWaits = %d with no post, want 0", got)
	}
	s.Post()
	<-done
	if got := st.Blocks.Load(); got != 1 {
		t.Errorf("Blocks = %d, want 1", got)
	}
	if st.ParkNanos.Count() != 1 {
		t.Errorf("ParkNanos count = %d, want 1 (park observed)", st.ParkNanos.Count())
	}
}

// A waiter that queues behind another is not the head and parks at
// once, however quick the hand-offs before it were.
func TestQueuedWaiterParksWithoutSpin(t *testing.T) {
	s := NewBinary()
	st := &Stats{}
	s.SetStats(st)
	spinOnOneP(t, s)

	// Quick hand-offs first: each head waiter is posted to while it
	// spins.
	for i := 0; i < 8; i++ {
		done := make(chan struct{})
		go func() {
			s.Wait()
			close(done)
		}()
		for s.Waiters() == 0 {
			runtime.Gosched()
		}
		s.Post()
		<-done
	}

	head, isHead := s.acquireOrEnqueue()
	if head == nil || !isHead {
		t.Fatalf("acquireOrEnqueue on an empty queue = (%v, %v), want a head waiter", head, isHead)
	}
	w, isHead := s.acquireOrEnqueue()
	if w == nil || isHead {
		t.Fatalf("acquireOrEnqueue behind a waiter = (%v, %v), want a non-head waiter", w, isHead)
	}
	s.mu.Lock()
	s.unlink(w)
	s.mu.Unlock()
	putWaiter(w)

	blocks := st.Blocks.Load()
	done := make(chan struct{})
	go func() {
		s.Wait()
		close(done)
	}()
	for s.Waiters() < 2 {
		runtime.Gosched()
	}
	// Queued behind head: it ran to its park without yielding.
	if got := st.Blocks.Load() - blocks; got != 1 {
		t.Fatalf("Blocks grew by %d as a second waiter enqueued, want 1 (no spin behind the head)", got)
	}
	s.Post() // to head
	<-head.ch
	putWaiter(head)
	s.Post()
	<-done
	if got := st.Blocks.Load() - blocks; got != 1 {
		t.Errorf("Blocks grew by %d, want 1", got)
	}
}
