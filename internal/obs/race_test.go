package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
)

// The histogram's atomic adds and its max CAS loop must be linearizable
// under contention; run with -race. A lost Observe would make the latency
// distributions lie.
func TestHistogramConcurrentObserve(t *testing.T) {
	const (
		workers = 8
		perW    = 10000
	)
	var h Histogram
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Mix magnitudes so several buckets and the max CAS
				// contention path are all exercised.
				h.Observe(int64(1 << (uint(i) % 20)))
				h.Observe(int64(w*perW + i))
			}
		}()
	}
	wg.Wait()
	if got, want := h.Count(), int64(2*workers*perW); got != want {
		t.Fatalf("Count = %d, want %d", got, want)
	}
	if got, want := h.Max(), int64(1<<19); got != want { // max of the 1<<(i%20) sequence
		t.Fatalf("Max = %d, want %d", got, want)
	}
	var n int64
	for _, b := range h.Snapshot().Buckets {
		n += b.N
	}
	if n != h.Count() {
		t.Fatalf("bucket total %d != count %d", n, h.Count())
	}
}

// Concurrent emitters on distinct lanes land on distinct shards and must
// not race; emitters sharing a lane (and hence a ring) may tear an event
// on wrap but must still be race-free. Run with -race.
func TestTracerConcurrentEmit(t *testing.T) {
	const (
		workers = 8
		perW    = 5000
	)
	tr := NewTracer(4096)
	tr.Enable()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Half the workers share lane 1 (same shard: wrap
				// collisions); half use distinct lanes.
				lane := uint64(1)
				if w%2 == 0 {
					lane = uint64(w + 2)
				}
				tr.Emit(lane, EvCVEnqueue, int64(i), 0)
			}
		}()
	}
	// A concurrent reader of the enabled flag and counters is legal.
	for i := 0; i < 100; i++ {
		_ = tr.Enabled()
		_ = tr.Emitted()
	}
	wg.Wait()
	tr.Disable()
	if got, want := tr.Emitted(), uint64(workers*perW); got != want {
		t.Fatalf("Emitted = %d, want %d", got, want)
	}
	evs := tr.Events()
	if len(evs) == 0 {
		t.Fatal("no events retained")
	}
	// Lane 1's shard wrapped many times under four writers: the horizon
	// is some evicted event's stamp, so it lies inside the capture.
	if h := tr.Horizon(); h <= 0 || h > evs[len(evs)-1].TS {
		t.Fatalf("Horizon = %d, want within (0, %d]", h, evs[len(evs)-1].TS)
	}
}

// WriteChromeTrace is the /debug/cv/trace handler's body: a scraper may
// drain the ring while emitters are still appending. The drain must stay
// race-free and always produce valid JSON, even over torn slots. Run
// with -race.
func TestChromeTraceConcurrentEmitAndDrain(t *testing.T) {
	tr := NewTracer(1 << 10)
	tr.Enable()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				tr.Emit(uint64(w), EvCVEnqueue, int64(i), 0)
				tr.Emit(uint64(w)+100, EvSemPark, int64(i), 1)
			}
		}()
	}
	for drains := 0; drains < 50; drains++ {
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatalf("drain %d: %v", drains, err)
		}
		if !json.Valid(buf.Bytes()) {
			t.Fatalf("drain %d produced invalid JSON:\n%.300s", drains, buf.String())
		}
	}
	close(stop)
	wg.Wait()
}
