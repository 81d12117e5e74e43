package sem

import (
	"context"
	"runtime"
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
// verify.sh's overhead guard for the lot that syncx.Mutex and monitor
// park on; core's TestParkNoAlloc guards the condvar's own park.
//
// Each side posts only once the other is queued, so no Wait takes a
// banked permit. "park" samples both semaphores as single-P, so there
// is no spin and every Wait deschedules; "spin" samples them as
// parallel, so the head waiter polls and catches the post in its spin.
// Both cases assert the path they measured.
func TestWaitPooledNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates on the park path")
	}
	post := func(s *Sem) {
		for s.Waiters() == 0 {
			runtime.Gosched()
		}
		s.Post()
	}
	for _, tc := range []struct {
		name  string
		procs int32
	}{{"park", 1}, {"spin", 2}} {
		t.Run(tc.name, func(t *testing.T) {
			var st1, st2 Stats
			s1, s2 := NewBinary(), NewBinary()
			s1.SetStats(&st1)
			s2.SetStats(&st2)
			s1.procs.Store(tc.procs)
			s2.procs.Store(tc.procs)
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
					post(s2)
				}
			}()
			cycle := func() {
				post(s1)
				s2.Wait()
			}
			// Warm the waiter pool: a GC triggered by earlier tests'
			// garbage may have emptied it, and the guard is about the
			// steady state, not the cold start.
			for i := 0; i < 8; i++ {
				cycle()
			}
			blocks, spins := st2.Blocks.Load(), st2.SpinWaits.Load()
			allocs := testing.AllocsPerRun(100, cycle)
			blocks, spins = st2.Blocks.Load()-blocks, st2.SpinWaits.Load()-spins
			close(stop)
			post(s1)
			<-done
			if allocs != 0 {
				t.Errorf("%s round-trip allocates %.2f objects/op, want 0", tc.name, allocs)
			}
			if tc.procs > 1 {
				if spins == 0 {
					t.Error("no Wait in the measured loop caught its post in the spin")
				}
				return
			}
			// AllocsPerRun makes one warm-up call besides its runs.
			if blocks != 101 {
				t.Errorf("measured loop parked %d times, want 101", blocks)
			}
			for i, st := range []*Stats{&st1, &st2} {
				if b, w := st.Blocks.Load(), st.Waits.Load(); b != w {
					t.Errorf("side %d: %d of %d waits parked, want all", i+1, b, w)
				}
			}
		})
	}
}
