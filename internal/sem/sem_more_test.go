package sem

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestTimeoutStats(t *testing.T) {
	var st Stats
	s := NewBinary()
	s.SetStats(&st)
	if s.WaitTimeout(5 * time.Millisecond) {
		t.Fatal("acquired from empty semaphore")
	}
	if st.Timeouts.Load() != 1 {
		t.Fatalf("Timeouts = %d", st.Timeouts.Load())
	}
}

func TestMixedTimedAndUntimedWaiters(t *testing.T) {
	s := NewBinary()
	var st Stats
	s.SetStats(&st)
	var timedOut, acquired atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if s.WaitTimeout(20 * time.Millisecond) {
				acquired.Add(1)
			} else {
				timedOut.Add(1)
			}
		}()
	}
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s.Wait()
			acquired.Add(1)
		}()
	}
	// Post only once every timed waiter has given up and every untimed
	// one is queued: a timed waiter still in its wait would take a
	// permit and strand an untimed one.
	waitUntil(t, func() bool { return st.Timeouts.Load() == 4 && s.Waiters() == 4 })
	for i := 0; i < 4; i++ {
		s.Post()
	}
	wg.Wait()
	if timedOut.Load() != 4 || acquired.Load() != 4 {
		t.Fatalf("timedOut=%d acquired=%d, want 4/4", timedOut.Load(), acquired.Load())
	}
	if s.Value() != 0 {
		t.Fatalf("leftover permits: %d", s.Value())
	}
}

func TestHandOffNoBarging(t *testing.T) {
	// The direct hand-off property: a permit posted while someone waits
	// goes to the waiter even if another goroutine races a TryWait.
	for i := 0; i < 100; i++ {
		s := NewBinary()
		got := make(chan struct{})
		go func() {
			s.Wait()
			close(got)
		}()
		for s.Waiters() != 1 {
			time.Sleep(100 * time.Microsecond)
		}
		s.Post()
		if s.TryWait() {
			t.Fatal("TryWait stole a handed-off permit")
		}
		<-got
	}
}
