package obs

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("Load = %d, want 5", got)
	}
}

func TestCounterNegativeAddPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Counter.Add(-1) did not panic")
		}
	}()
	var c Counter
	c.Add(-1)
}

// Concurrent Inc must lose no update; run with -race.
func TestCounterConcurrent(t *testing.T) {
	testCounterConcurrent(t, func(c *Counter) { c.Inc() })
}

// Concurrent Add must lose no update; run with -race.
func TestCounterConcurrentAdd(t *testing.T) {
	testCounterConcurrent(t, func(c *Counter) { c.Add(1) })
}

func testCounterConcurrent(t *testing.T, bump func(*Counter)) {
	const workers, perW = 8, 10000
	var c Counter
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				bump(&c)
			}
		}()
	}
	wg.Wait()
	if got, want := c.Load(), int64(workers*perW); got != want {
		t.Fatalf("Load = %d, want %d", got, want)
	}
}
