package facility

import (
	"sync"
	"sync/atomic"
	"testing"
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

// Wide-broadcast regression: a barrier (parties-1 waiters released by
// one broadcast per round) must cycle correctly under the batched wake
// path at several batch widths, from a single waiter to 63.
func TestBarrierWideBroadcast(t *testing.T) {
	for _, parties := range []int{64, 17, 8, 2} {
		forEachKind(t, func(t *testing.T, tk *Toolkit) {
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
						if got := phase[r].Load(); got != int64(parties) {
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
