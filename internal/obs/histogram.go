package obs

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"strings"
	"sync/atomic"
)

// numBuckets is one bucket per power of two: bucket 0 holds values <= 1
// (including zero and negatives, which a sane latency source never
// produces but a clock step can), bucket i holds [2^i, 2^(i+1)).
const numBuckets = 64

// Histogram is an atomic log2-bucketed histogram. Observe is a handful of
// uncontended-in-practice atomic adds, cheap enough to leave enabled in
// benchmarks, like Counter. The zero value is ready to use; all methods
// are safe for concurrent use.
//
// Log2 buckets give ~2x relative resolution over the full int64 range with
// a fixed footprint — the right trade for latency distributions, where the
// interesting structure (fast path vs park vs serial episode) spans
// orders of magnitude.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	return bits.Len64(uint64(v)) - 1
}

// bucketLo returns the inclusive lower bound of bucket i.
func bucketLo(i int) int64 {
	if i == 0 {
		return 0
	}
	return int64(1) << uint(i)
}

// bucketHi returns the exclusive upper bound of bucket i, clamped to
// MaxInt64 for the top buckets.
func bucketHi(i int) int64 {
	if i >= 62 {
		return math.MaxInt64
	}
	return int64(1) << uint(i+1)
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bucketOf(v)].Add(1)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest observed value (zero if none).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the arithmetic mean, or 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return float64(h.sum.Load()) / float64(n)
}

// Quantile returns an estimate of the q-quantile (0 <= q <= 1): the
// geometric midpoint of the bucket containing that rank. With log2 buckets
// the estimate is within 2x of the true value — adequate for p50/p99
// dashboards, not for microbenchmark deltas.
func (h *Histogram) Quantile(q float64) int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n-1))
	var cum int64
	for i := 0; i < numBuckets; i++ {
		c := h.buckets[i].Load()
		cum += c
		if c > 0 && cum > rank {
			lo, hi := bucketLo(i), bucketHi(i)
			if i == 0 {
				return 1
			}
			return int64(math.Sqrt(float64(lo) * float64(hi)))
		}
	}
	return h.max.Load()
}

// Reset zeroes the histogram. Not atomic with respect to concurrent
// Observes; quiesce first for exact results.
func (h *Histogram) Reset() {
	h.count.Store(0)
	h.sum.Store(0)
	h.max.Store(0)
	for i := range h.buckets {
		h.buckets[i].Store(0)
	}
}

// Bucket is one non-empty histogram bucket: values in [Lo, Hi).
type Bucket struct {
	Lo int64 `json:"lo"`
	Hi int64 `json:"hi"`
	N  int64 `json:"n"`
}

// HistogramSnapshot is a point-in-time copy of a Histogram, suitable for
// JSON export and for cross-trial aggregation.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Snapshot copies the histogram's current state (non-empty buckets only).
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for i := 0; i < numBuckets; i++ {
		if n := h.buckets[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, Bucket{Lo: bucketLo(i), Hi: bucketHi(i), N: n})
		}
	}
	return s
}

// Quantile estimates the q-quantile from the snapshot's buckets, with
// the same geometric-midpoint estimate (and the same ~2x error bound) as
// Histogram.Quantile. Exported so consumers of serialized snapshots —
// the registry's vars export, cvtop — can summarize without the live
// histogram.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	rank := int64(q * float64(s.Count-1))
	var cum int64
	for _, b := range s.Buckets {
		cum += b.N
		if cum > rank {
			if b.Lo <= 1 {
				return 1
			}
			if b.Hi == math.MaxInt64 {
				return s.Max
			}
			return int64(math.Sqrt(float64(b.Lo) * float64(b.Hi)))
		}
	}
	return s.Max
}

// Merge adds other's buckets into s (for aggregating trials). Buckets
// stay in ascending Lo order, the order Quantile walks them in.
func (s *HistogramSnapshot) Merge(other HistogramSnapshot) {
	s.Count += other.Count
	s.Sum += other.Sum
	if other.Max > s.Max {
		s.Max = other.Max
	}
	for _, b := range other.Buckets {
		i, found := slices.BinarySearchFunc(s.Buckets, b.Lo, func(x Bucket, lo int64) int {
			return cmp.Compare(x.Lo, lo)
		})
		if found {
			s.Buckets[i].N += b.N
		} else {
			s.Buckets = slices.Insert(s.Buckets, i, b)
		}
	}
}

// String renders a compact one-line summary.
func (h *Histogram) String() string {
	n := h.count.Load()
	if n == 0 {
		return "count=0"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "count=%d mean=%.0f p50=%d p99=%d max=%d",
		n, h.Mean(), h.Quantile(0.50), h.Quantile(0.99), h.max.Load())
	return b.String()
}
