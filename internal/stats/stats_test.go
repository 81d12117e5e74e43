package stats

import (
	"sync"
	"testing"
	"testing/quick"
)

func TestCounterBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if got := c.Load(); got != 5 {
		t.Fatalf("Load = %d, want 5", got)
	}
	if got := c.Reset(); got != 5 {
		t.Fatalf("Reset = %d, want 5", got)
	}
	if got := c.Load(); got != 0 {
		t.Fatalf("Load after Reset = %d, want 0", got)
	}
}

func TestCounterConcurrent(t *testing.T) {
	var c Counter
	var wg sync.WaitGroup
	const goroutines, iters = 8, 1000
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if got := c.Load(); got != goroutines*iters {
		t.Fatalf("Load = %d, want %d", got, goroutines*iters)
	}
}

func TestMaxObserve(t *testing.T) {
	var m Max
	m.Observe(3)
	m.Observe(1)
	m.Observe(7)
	m.Observe(5)
	if got := m.Load(); got != 7 {
		t.Fatalf("Load = %d, want 7", got)
	}
	m.Reset()
	if got := m.Load(); got != 0 {
		t.Fatalf("Load after Reset = %d", got)
	}
}

func TestMaxConcurrent(t *testing.T) {
	var m Max
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				m.Observe(int64(g*500 + i))
			}
		}()
	}
	wg.Wait()
	if got := m.Load(); got != 8*500-1 {
		t.Fatalf("Load = %d, want %d", got, 8*500-1)
	}
}

func TestQuickMaxIsMaximum(t *testing.T) {
	f := func(xs []int16) bool {
		var m Max
		want := int64(0)
		for _, x := range xs {
			v := int64(x)
			m.Observe(v)
			if v > want {
				want = v
			}
		}
		return m.Load() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
