package stats

import (
	"sync"
	"testing"
)

// The Max CAS loop and Counter adds must be linearizable under
// contention; run with -race. (This pins the audit of stats.Max: a
// torn or lost Observe would make core.Stats.MaxQueue lie.)
func TestMaxConcurrentObserve(t *testing.T) {
	const (
		workers = 8
		perW    = 10000
	)
	var m Max
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Interleave ascending and descending sequences so CAS
				// failures and the n <= cur fast path both occur.
				m.Observe(int64(w*perW + i))
				m.Observe(int64(perW - i))
			}
		}()
	}
	wg.Wait()
	if got, want := m.Load(), int64(workers*perW-1); got != want {
		t.Fatalf("Max = %d, want %d", got, want)
	}
}

func TestCounterConcurrentAdd(t *testing.T) {
	const (
		workers = 8
		perW    = 10000
	)
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got, want := c.Load(), int64(workers*perW); got != want {
		t.Fatalf("Counter = %d, want %d", got, want)
	}
}
