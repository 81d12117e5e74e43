package obs

import (
	"encoding/json"
	"testing"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0}, {1, 0},
		{2, 1}, {3, 1},
		{4, 2}, {7, 2},
		{8, 3},
		{1 << 40, 40},
		{1<<41 - 1, 40},
		{1<<62 + 1, 62},
	}
	for _, c := range cases {
		if got := bucketOf(c.v); got != c.want {
			t.Errorf("bucketOf(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestBucketBounds(t *testing.T) {
	for i := 0; i < numBuckets; i++ {
		lo, hi := bucketLo(i), bucketHi(i)
		if lo >= hi {
			t.Fatalf("bucket %d: lo %d >= hi %d", i, lo, hi)
		}
	}
	// Every value must fall inside its own bucket's bounds.
	for _, v := range []int64{0, 1, 2, 100, 1 << 30, 1 << 62} {
		i := bucketOf(v)
		if v < bucketLo(i) || v >= bucketHi(i) {
			t.Errorf("value %d outside its bucket %d [%d, %d)", v, i, bucketLo(i), bucketHi(i))
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 5, 5, 100, 1000} {
		h.Observe(v)
	}
	if h.Count() != 5 {
		t.Errorf("Count = %d, want 5", h.Count())
	}
	if h.Sum() != 1111 {
		t.Errorf("Sum = %d, want 1111", h.Sum())
	}
	if h.Max() != 1000 {
		t.Errorf("Max = %d, want 1000", h.Max())
	}
	if m := h.Mean(); m != 1111.0/5 {
		t.Errorf("Mean = %v, want %v", m, 1111.0/5)
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 {
		t.Errorf("empty Quantile = %d, want 0", h.Quantile(0.5))
	}
	// 100 values in bucket [4,8), 1 value way up high.
	for i := 0; i < 100; i++ {
		h.Observe(5)
	}
	h.Observe(1 << 20)
	p50 := h.Quantile(0.50)
	if p50 < 4 || p50 >= 8 {
		t.Errorf("p50 = %d, want within [4,8)", p50)
	}
	// Rank 99 of 101 observations is still the 5s bucket; only q=1 (the
	// true maximum's rank) reaches the outlier.
	p100 := h.Quantile(1.0)
	if p100 < 1<<20 || p100 >= 1<<21 {
		t.Errorf("p100 = %d, want within [2^20, 2^21)", p100)
	}
}

func TestHistogramSnapshotAndMerge(t *testing.T) {
	var a, b Histogram
	a.Observe(5)
	a.Observe(6)
	b.Observe(5)
	b.Observe(1000)

	sa, sb := a.Snapshot(), b.Snapshot()
	if len(sa.Buckets) != 1 || sa.Buckets[0].N != 2 {
		t.Fatalf("snapshot a: %+v", sa)
	}
	sa.Merge(sb)
	if sa.Count != 4 || sa.Sum != 1016 || sa.Max != 1000 {
		t.Errorf("merged: %+v", sa)
	}
	var n int64
	for _, bk := range sa.Buckets {
		n += bk.N
	}
	if n != 4 {
		t.Errorf("merged bucket total = %d, want 4", n)
	}

	// The snapshot must round-trip through JSON (the metrics exporter
	// relies on the struct tags).
	raw, err := json.Marshal(sa)
	if err != nil {
		t.Fatal(err)
	}
	var back HistogramSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Count != sa.Count || len(back.Buckets) != len(sa.Buckets) {
		t.Errorf("round-trip mismatch: %+v vs %+v", back, sa)
	}
}

// Merging a snapshot whose buckets lie below every bucket already held
// must keep the buckets in Lo order: Quantile walks them in slice order,
// so a low bucket appended at the end would read as the top of the
// distribution.
func TestHistogramMergeKeepsBucketOrder(t *testing.T) {
	var hi, lo Histogram
	for i := 0; i < 10; i++ {
		hi.Observe(1000)
		lo.Observe(5)
	}
	s := hi.Snapshot()
	s.Merge(lo.Snapshot())
	for i := 1; i < len(s.Buckets); i++ {
		if s.Buckets[i-1].Lo >= s.Buckets[i].Lo {
			t.Fatalf("merged buckets out of Lo order: %+v", s.Buckets)
		}
	}
	if p10, p90 := s.Quantile(0.10), s.Quantile(0.90); p10 != 5 || p90 != 724 {
		t.Errorf("merged p10/p90 = %d/%d, want 5/724", p10, p90)
	}
}

func TestHistogramReset(t *testing.T) {
	var h Histogram
	h.Observe(42)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 || h.Max() != 0 {
		t.Errorf("after Reset: count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	if s := h.Snapshot(); len(s.Buckets) != 0 {
		t.Errorf("after Reset: buckets %+v", s.Buckets)
	}
}

func TestHistogramString(t *testing.T) {
	var h Histogram
	if h.String() != "count=0" {
		t.Errorf("empty String = %q", h.String())
	}
	h.Observe(100)
	if s := h.String(); s == "" || s == "count=0" {
		t.Errorf("non-empty String = %q", s)
	}
}
