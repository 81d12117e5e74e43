package obs

import "sync/atomic"

// Counter is a monotonically increasing atomic counter, the scalar
// companion of Histogram shared by every layer (semaphores, STM engines,
// condition variables). Inc and Add are a single atomic add, cheap
// enough to leave enabled in benchmarks. The zero value is ready to use.
type Counter struct {
	v atomic.Int64
}

// Inc adds one to the counter.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n to the counter. n must be non-negative; a negative delta is
// a programming error (the value would no longer be a counter) and
// panics.
func (c *Counter) Add(n int64) {
	if n < 0 {
		panic("obs: negative delta on a Counter")
	}
	c.v.Add(n)
}

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }
