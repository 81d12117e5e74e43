package facility

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
)

// SubmitBatch runs every task exactly once under all three systems,
// mixed freely with single Submits, and tolerates empty batches.
func TestTaskQueueSubmitBatch(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		q := NewTaskQueue(tk, 8)
		var ran atomic.Int64
		const batch = 128
		tasks := make([]func(), batch)
		for i := range tasks {
			tasks[i] = func() { ran.Add(1) }
		}
		q.SubmitBatch(nil)
		q.SubmitBatch(tasks)
		q.Submit(func() { ran.Add(1) })
		q.SubmitBatch(tasks[:16])
		q.Drain()
		if got := ran.Load(); got != batch+1+16 {
			t.Fatalf("ran = %d, want %d", got, batch+1+16)
		}
		q.Close()
	})
}

// Wide-broadcast regression: a 64-party barrier (64 waiters released by
// one broadcast per round) must cycle correctly under the batched wake
// path at several fan-outs, including the pure chain and a fan-out
// wider than the batch (the notifier posts every waiter itself).
func TestBarrierWideBroadcast(t *testing.T) {
	fanouts := []core.Options{
		{},                // default fan-out
		{WakeFanout: 1},   // pure chain
		{WakeFanout: 4},   // paced
		{WakeFanout: 128}, // wider than the 64-waiter batch: no chain
	}
	for _, opts := range fanouts {
		opts := opts
		forEachKind(t, func(t *testing.T, tk *Toolkit) {
			tk.CVOpts = opts
			const parties = 64
			const rounds = 5
			b := NewBarrier(tk, parties)
			var phase [rounds]atomic.Int64
			var wg sync.WaitGroup
			for p := 0; p < parties; p++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for r := 0; r < rounds; r++ {
						phase[r].Add(1)
						b.Arrive()
						// Everyone must have finished round r before anyone
						// proceeds past the barrier.
						if got := phase[r].Load(); got != parties {
							t.Errorf("round %d: crossed barrier with %d/%d arrivals", r, got, parties)
							return
						}
					}
				}()
			}
			wg.Wait()
		})
	}
}
