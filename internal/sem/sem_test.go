package sem

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestNewInitialCount(t *testing.T) {
	s := New(3)
	if got := s.Value(); got != 3 {
		t.Fatalf("Value() = %d, want 3", got)
	}
}

func TestNewNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(-1) did not panic")
		}
	}()
	New(-1)
}

func TestZeroValueUsable(t *testing.T) {
	var s Sem
	s.Post()
	s.Wait() // must not block
	if got := s.Value(); got != 0 {
		t.Fatalf("Value() = %d, want 0", got)
	}
}

func TestWaitConsumesPermit(t *testing.T) {
	s := New(2)
	s.Wait()
	s.Wait()
	if got := s.Value(); got != 0 {
		t.Fatalf("Value() = %d, want 0", got)
	}
}

func TestPostBeforeWaitNotLost(t *testing.T) {
	// The property the condition variable depends on: a Post performed
	// while nobody is waiting is memorized.
	s := NewBinary()
	s.Post()
	done := make(chan struct{})
	go func() {
		s.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait blocked despite prior Post")
	}
}

func TestWaitBlocksUntilPost(t *testing.T) {
	s := NewBinary()
	got := make(chan struct{})
	go func() {
		s.Wait()
		close(got)
	}()
	select {
	case <-got:
		t.Fatal("Wait returned without a Post")
	case <-time.After(20 * time.Millisecond):
	}
	s.Post()
	select {
	case <-got:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return after Post")
	}
}

func TestTryWait(t *testing.T) {
	s := New(1)
	if !s.TryWait() {
		t.Fatal("TryWait failed with a permit available")
	}
	if s.TryWait() {
		t.Fatal("TryWait succeeded with no permit")
	}
	s.Post()
	if !s.TryWait() {
		t.Fatal("TryWait failed after Post")
	}
}

func TestWaitTimeoutExpires(t *testing.T) {
	s := NewBinary()
	start := time.Now()
	if s.WaitTimeout(30 * time.Millisecond) {
		t.Fatal("WaitTimeout succeeded with no permit")
	}
	if time.Since(start) < 25*time.Millisecond {
		t.Fatal("WaitTimeout returned too early")
	}
	// A timed-out waiter must be fully unlinked: a later Post should bank
	// the permit, not hand it to a ghost.
	s.Post()
	if got := s.Value(); got != 1 {
		t.Fatalf("Value() after Post = %d, want 1", got)
	}
	if got := s.Waiters(); got != 0 {
		t.Fatalf("Waiters() = %d, want 0", got)
	}
}

func TestWaitTimeoutSatisfied(t *testing.T) {
	s := NewBinary()
	go func() {
		time.Sleep(10 * time.Millisecond)
		s.Post()
	}()
	if !s.WaitTimeout(5 * time.Second) {
		t.Fatal("WaitTimeout failed despite Post")
	}
}

func TestWaitTimeoutRaceKeepsPermit(t *testing.T) {
	// Stress the timeout/Post race: no permit may be lost or duplicated.
	for i := 0; i < 200; i++ {
		s := NewBinary()
		res := make(chan bool, 1)
		go func() {
			res <- s.WaitTimeout(time.Duration(i%3) * time.Millisecond)
		}()
		time.Sleep(time.Duration(i%4) * time.Millisecond)
		s.Post()
		got := <-res
		want := int64(1)
		if got {
			want = 0
		}
		if v := s.Value(); v != want {
			t.Fatalf("iter %d: acquired=%v but Value()=%d (want %d)", i, got, v, want)
		}
	}
}

func TestFIFOHandOff(t *testing.T) {
	s := NewBinary()
	const n = 8
	order := make(chan int, n)
	ready := make(chan struct{}, n)
	var mu sync.Mutex // serializes goroutine startup so queue order is known
	for i := 0; i < n; i++ {
		i := i
		mu.Lock()
		go func() {
			ready <- struct{}{}
			mu.Unlock()
			s.Wait()
			order <- i
		}()
		<-ready
		// Wait until the goroutine is actually parked in the queue.
		for s.Waiters() != i+1 {
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < n; i++ {
		s.Post()
		if got := <-order; got != i {
			t.Fatalf("wake order: got %d at position %d", got, i)
		}
	}
}

func TestWaitersCount(t *testing.T) {
	s := NewBinary()
	const n = 5
	for i := 0; i < n; i++ {
		go s.Wait()
	}
	waitUntil(t, func() bool { return s.Waiters() == n })
	for i := 0; i < n; i++ {
		s.Post()
	}
	waitUntil(t, func() bool { return s.Waiters() == 0 })
}

func TestStats(t *testing.T) {
	var st Stats
	s := NewBinary()
	s.SetStats(&st)
	s.Post()
	s.Wait()
	if st.Posts.Load() != 1 || st.Waits.Load() != 1 || st.FastWaits.Load() != 1 {
		t.Fatalf("stats = posts %d waits %d fast %d, want 1/1/1",
			st.Posts.Load(), st.Waits.Load(), st.FastWaits.Load())
	}
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	for st.Blocks.Load() != 1 {
		time.Sleep(time.Millisecond)
	}
	s.Post()
	<-done
	if st.Waits.Load() != 2 {
		t.Fatalf("Waits = %d, want 2", st.Waits.Load())
	}
}

// Property: for any sequence of posts and (fewer) waits, the final count is
// posts - waits and no operation blocks.
func TestQuickCountBalance(t *testing.T) {
	f := func(ops []bool) bool {
		s := New(int64(len(ops))) // enough initial permits that Wait never blocks
		posts, waits := 0, 0
		for _, p := range ops {
			if p {
				s.Post()
				posts++
			} else {
				s.Wait()
				waits++
			}
		}
		return s.Value() == int64(len(ops)+posts-waits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: with P producers posting N permits each and C consumers
// waiting, exactly P*N waits complete, regardless of interleaving.
func TestConcurrentBalance(t *testing.T) {
	const producers, perProducer, consumers = 4, 250, 4
	total := producers * perProducer
	s := NewBinary()
	var acquired atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < consumers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if acquired.Load() >= int64(total) {
					// Residual: drain only what is immediately available.
					if !s.TryWait() {
						return
					}
					acquired.Add(1)
					continue
				}
				if s.WaitTimeout(100 * time.Millisecond) {
					acquired.Add(1)
				}
			}
		}()
	}
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				s.Post()
			}
		}()
	}
	wg.Wait()
	if got := acquired.Load() + s.Value(); got != int64(total) {
		t.Fatalf("acquired+banked = %d, want %d", got, total)
	}
}

// Hammer the semaphore as a mutual-exclusion device (binary semaphore used
// as a lock): the protected counter must end exact.
func TestBinaryAsMutex(t *testing.T) {
	s := New(1)
	const goroutines, iters = 8, 2000
	counter := 0
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				s.Wait()
				counter++
				s.Post()
			}
		}()
	}
	wg.Wait()
	if counter != goroutines*iters {
		t.Fatalf("counter = %d, want %d", counter, goroutines*iters)
	}
}
