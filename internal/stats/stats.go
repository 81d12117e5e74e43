// Package stats provides lightweight atomic counters, gauges and maximum
// trackers shared by every layer of the repository (semaphores, STM
// engines, condition variables, PARSEC workloads). All types are cheap
// enough to leave enabled in benchmarks: a single atomic add on the fast
// path. Latency distributions live one level up, in internal/obs
// (Histogram), which complements these scalar instruments.
//
// The zero value of every type in this package is ready to use.
package stats

import "sync/atomic"

// Counter is a monotonically increasing atomic counter: it only ever
// moves up (Reset excepted). For a value that must go both ways — queue
// depths, in-flight work — use Gauge.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter. n must be non-negative; a negative delta is
// a programming error (the value would no longer be a counter) and
// panics. Gauge is the type for values that decrease.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("stats: negative delta on a Counter (use Gauge for values that decrease)")
	}
	c.v.Add(n)
}

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Reset sets the counter back to zero and returns the previous value.
func (c *Counter) Reset() int64 { return c.v.Swap(0) }

// Gauge is an atomic instantaneous-value tracker: unlike Counter it moves
// in both directions (current queue depth, in-flight transactions). The
// zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Inc adds one to the gauge.
func (g *Gauge) Inc() { g.v.Add(1) }

// Dec subtracts one from the gauge.
func (g *Gauge) Dec() { g.v.Add(-1) }

// Add adds n (which may be negative) and returns the new value.
func (g *Gauge) Add(n int64) int64 { return g.v.Add(n) }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Reset sets the gauge back to zero and returns the previous value.
func (g *Gauge) Reset() int64 { return g.v.Swap(0) }

// Max is an atomic maximum tracker.
type Max struct {
	v atomic.Int64
}

// Observe records n, retaining the maximum value seen so far.
func (m *Max) Observe(n int64) {
	for {
		cur := m.v.Load()
		if n <= cur {
			return
		}
		if m.v.CompareAndSwap(cur, n) {
			return
		}
	}
}

// Load returns the maximum observed value (zero if none observed).
func (m *Max) Load() int64 { return m.v.Load() }

// Reset clears the tracker.
func (m *Max) Reset() { m.v.Store(0) }
