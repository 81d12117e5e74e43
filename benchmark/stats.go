package main

import (
	"cmp"
	"math"
	"slices"
	"time"

	"repro/internal/obs"
)

var processStart = time.Now()

// nanotime is one monotonic clock read, in ns since the process started.
func nanotime() int64 { return int64(time.Since(processStart)) }

// summary is what a metric reports: its value — the median over its
// samples (rounds, or ladder repetitions) unless the metric says otherwise —
// and the quartiles and the sample count, so a later comparison can say
// "unresolved" rather than "unchanged".
type summary struct {
	Value  float64 `json:"value"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize takes quartiles the way Python's statistics.quantiles(n=4)
// does, so the spreads printed here match the ones the driver computes.
func summarize(xs []float64) summary {
	s := append([]float64(nil), xs...)
	slices.Sort(s)
	at := func(q float64) float64 {
		m := len(s)
		if m == 0 {
			return 0
		}
		pos := q * float64(m+1)
		j := int(pos)
		if j < 1 {
			return s[0]
		}
		if j >= m {
			return s[m-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	return summary{Value: at(0.5), Median: at(0.5), Q1: at(0.25), Q3: at(0.75), N: len(s)}
}

// geomean is the geometric mean, or 0 if a value is not positive; of a
// single group it is that group's value.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		if x <= 0 {
			return 0
		}
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

// tailQuantile is the high percentile a sample of n supports: p99 from
// 1 000 samples up, else the highest with ten samples beyond it.
func tailQuantile(n int64) float64 {
	switch {
	case n >= 1000:
		return 0.99
	case n > 20:
		return 1 - 10/float64(n)
	default:
		return 0.5
	}
}

// dist is a set of latency samples: exact values from the drivers' own
// clock reads, or a log2 histogram read from a layer's counters.
type dist struct {
	samples []int64
	hist    obs.HistogramSnapshot
}

func (d *dist) add(o dist) {
	d.samples = append(d.samples, o.samples...)
	d.hist.Merge(o.hist)
}

func (d *dist) count() int64 { return int64(len(d.samples)) + d.hist.Count }

// quantile of the exact samples when there are any, else of the histogram,
// interpolated inside the bucket that holds the rank (obs reports the
// bucket's midpoint, which moves in factors of two).
func (d *dist) quantile(q float64) float64 {
	if n := len(d.samples); n > 0 {
		slices.Sort(d.samples)
		return float64(d.samples[int(q*float64(n-1))])
	}
	if d.hist.Count == 0 {
		return 0
	}
	// Merge appends buckets in arrival order.
	slices.SortFunc(d.hist.Buckets, func(a, b obs.Bucket) int { return cmp.Compare(a.Lo, b.Lo) })
	rank := q * float64(d.hist.Count-1)
	cum := 0.0
	for _, b := range d.hist.Buckets {
		n := float64(b.N)
		if n > 0 && cum+n > rank {
			lo, hi := math.Max(float64(b.Lo), 1), float64(b.Hi)
			if hi > float64(d.hist.Max) {
				hi = math.Max(float64(d.hist.Max), lo)
			}
			return lo * math.Pow(hi/lo, (rank-cum+0.5)/n)
		}
		cum += n
	}
	return float64(d.hist.Max)
}

// histQuantile is the interpolated q-quantile of one of a layer's histograms.
func histQuantile(h *obs.Histogram, q float64) float64 {
	d := dist{hist: h.Snapshot()}
	return d.quantile(q)
}
