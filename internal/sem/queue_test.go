package sem

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// finish waits for wg under a watchdog: with untimed Waits in play a
// lost wake-up shows up as a hang, not as a wrong number.
func finish(t *testing.T, wg *sync.WaitGroup, s *Sem) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatalf("hung with %d waiters parked, %d banked — lost wake-up", s.Waiters(), s.Value())
	}
}

// A balanced Post/Wait churn hammers the window between a waiter's
// recheck and its enqueue: every permit must reach a waiter, and the
// semaphore must end empty on both sides.
func TestConservationChurn(t *testing.T) {
	s := NewBinary()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.Post()
				s.Wait()
			}
		}()
	}
	finish(t, &wg, s)
	if s.Value() != 0 || s.Waiters() != 0 {
		t.Fatalf("after balanced churn: %d banked, %d parked, want 0/0", s.Value(), s.Waiters())
	}
}

// Timeout and cancellation losers racing Post: whichever side wins each
// race, every goroutine returns, every permit is either consumed by
// exactly one of them or left banked, and nobody stays queued. The
// cancellable waiters are all parked before the clock starts — the timed
// waiters are launched, the cancel fired and the posts issued only after
// that barrier — so no outcome the test asserts depends on timing.
func TestLoserRaceConservation(t *testing.T) {
	for iter := 0; iter < 40; iter++ {
		s := NewBinary()
		const cancelled, timed, posts = 6, 6, 8
		ctx, cancel := context.WithCancel(context.Background())
		var won, lost atomic.Int64
		var wg sync.WaitGroup
		tally := func(acquired bool) {
			if acquired {
				won.Add(1)
			} else {
				lost.Add(1)
			}
			wg.Done()
		}
		wg.Add(cancelled + timed)
		for i := 0; i < cancelled; i++ {
			go func() { tally(s.WaitCtx(ctx)) }()
		}
		waitUntil(t, func() bool { return s.Waiters() == cancelled })
		for i := 1; i <= timed; i++ {
			go func(d time.Duration) { tally(s.WaitTimeout(d)) }(time.Duration(i) * 100 * time.Microsecond)
		}
		go cancel()
		for i := 0; i < posts; i++ {
			s.Post()
		}
		finish(t, &wg, s)
		if got := won.Load() + lost.Load(); got != cancelled+timed {
			t.Fatalf("iter %d: %d of %d goroutines accounted for", iter, got, cancelled+timed)
		}
		if won.Load()+s.Value() != posts {
			t.Fatalf("iter %d: %d consumed + %d banked != %d posted", iter, won.Load(), s.Value(), posts)
		}
		if w := s.Waiters(); w != 0 {
			t.Fatalf("iter %d: %d waiters stranded", iter, w)
		}
	}
}

// The parking lot's park path is allocation-free in steady state:
// waiter structs (with their hand-off channels) are pooled, so a
// post/wait round-trip through a real park allocates nothing. This is
// verify.sh's overhead guard for the lot that syncx.Mutex, monitor and
// the Birrell baseline park on; core's TestParkNoAlloc guards the
// condvar's own park.
func TestWaitPooledNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the park path")
	}
	s1, s2 := NewBinary(), NewBinary()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			s1.Wait()
			select {
			case <-stop:
				return
			default:
			}
			s2.Post()
		}
	}()
	// Warm the waiter pool: a GC triggered by earlier tests' garbage may
	// have emptied it, and the guard is about the steady state, not the
	// cold start.
	for i := 0; i < 8; i++ {
		s1.Post()
		s2.Wait()
	}
	allocs := testing.AllocsPerRun(100, func() {
		s1.Post()
		s2.Wait()
	})
	close(stop)
	s1.Post()
	<-done
	if allocs != 0 {
		t.Errorf("park round-trip allocates %.2f objects/op, want 0", allocs)
	}
}
