package sem

import (
	"testing"
	"time"
)

// OldestParkAge reports the head waiter's park age while anyone is
// parked, and nothing once every waiter has been released.
func TestOldestParkAge(t *testing.T) {
	s := NewBinary()
	if _, ok := s.OldestParkAge(); ok {
		t.Fatal("OldestParkAge reports a waiter on an idle semaphore")
	}
	released := make(chan struct{})
	for i := 0; i < 3; i++ {
		go func() {
			s.Wait()
			released <- struct{}{}
		}()
	}
	waitUntil(t, func() bool { return s.Waiters() == 3 })
	time.Sleep(5 * time.Millisecond)

	oldest, ok := s.OldestParkAge()
	if !ok || oldest <= 0 {
		t.Fatalf("OldestParkAge = %v, %v", oldest, ok)
	}

	for i := 0; i < 3; i++ {
		s.Post()
		<-released
	}
	if _, ok := s.OldestParkAge(); ok {
		t.Fatal("OldestParkAge reports a waiter after all were released")
	}
}

// TestWaiterAgeClamped pins the negative-age clamp: a waiter whose
// parkedAt is in the future (a stepping clock) reports age zero, the
// same discipline parkEnd applies to the park histogram.
func TestWaiterAgeClamped(t *testing.T) {
	s := NewBinary()
	w := &waiter{ch: make(chan struct{}, 1)}
	s.mu.Lock()
	s.enqueue(w)
	w.parkedAt = time.Now().Add(time.Hour) // hostile: park "begins" in the future
	s.mu.Unlock()

	if oldest, ok := s.OldestParkAge(); !ok || oldest != 0 {
		t.Fatalf("OldestParkAge = %v, %v, want 0, true", oldest, ok)
	}
}
