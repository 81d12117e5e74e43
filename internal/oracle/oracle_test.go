package oracle

import (
	"fmt"
	"sync"
	"testing"
)

func wantDivergence(t *testing.T, o *Oracle, kind string) {
	t.Helper()
	for _, d := range o.Divergences() {
		if d.Kind == kind {
			return
		}
	}
	t.Fatalf("expected a %q divergence, got %v", kind, o.Divergences())
}

func wantClean(t *testing.T, o *Oracle) {
	t.Helper()
	if ds := o.Divergences(); len(ds) != 0 {
		t.Fatalf("unexpected divergences: %v", ds)
	}
}

func TestTaskLifecycle(t *testing.T) {
	o := New()
	for id := uint64(1); id <= 100; id++ {
		o.TaskSubmitted("tq", id)
	}
	for id := uint64(1); id <= 100; id++ {
		o.TaskCompleted("tq", id)
	}
	if !o.TaskQueueDrained("tq") {
		t.Fatal("drained queue reported incomplete")
	}
	wantClean(t, o)
	tot := o.Totals()
	if tot.TasksSubmitted != 100 || tot.TasksCompleted != 100 || tot.PendingTasks != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestTaskDoubleCompletion(t *testing.T) {
	o := New()
	o.TaskSubmitted("tq", 7)
	o.TaskCompleted("tq", 7)
	o.TaskCompleted("tq", 7)
	wantDivergence(t, o, "task.unknown-complete")
}

func TestTaskPhantomCompletion(t *testing.T) {
	o := New()
	o.TaskCompleted("tq", 99)
	wantDivergence(t, o, "task.unknown-complete")
}

func TestDrainIncomplete(t *testing.T) {
	o := New()
	o.TaskSubmitted("tq", 1)
	o.TaskSubmitted("tq", 2)
	o.TaskCompleted("tq", 1)
	if o.TaskQueueDrained("tq") {
		t.Fatal("drain with a pending task reported complete")
	}
	wantDivergence(t, o, "drain.incomplete")
}

func TestItemLifecycleAndReorder(t *testing.T) {
	o := New()
	// Normal order.
	o.ItemPutStart("q", 1)
	o.ItemPutDone("q", 1, true)
	o.ItemGot("q", 1)
	// Consumer overtakes the producer's post-Put record.
	o.ItemPutStart("q", 2)
	o.ItemGot("q", 2)
	o.ItemPutDone("q", 2, true)
	// Rejected put (queue closed).
	o.ItemPutStart("q", 3)
	o.ItemPutDone("q", 3, false)
	if !o.QueueDrained("q") {
		t.Fatal("drained queue reported unconserved")
	}
	wantClean(t, o)
	tot := o.Totals()
	if tot.ItemsPut != 2 || tot.ItemsGot != 2 || tot.OpenItems != 0 {
		t.Fatalf("totals = %+v", tot)
	}
}

func TestItemDoubleGet(t *testing.T) {
	o := New()
	o.ItemPutStart("q", 5)
	o.ItemPutDone("q", 5, true)
	o.ItemGot("q", 5)
	o.ItemGot("q", 5)
	wantDivergence(t, o, "item.unknown-get")
}

func TestItemGotAfterRejectedPut(t *testing.T) {
	o := New()
	o.ItemPutStart("q", 5)
	o.ItemGot("q", 5)            // early get...
	o.ItemPutDone("q", 5, false) // ...but the Put says the item never entered
	wantDivergence(t, o, "item.got-rejected")
}

func TestQueueDrainedUnconsumed(t *testing.T) {
	o := New()
	o.ItemPutStart("q", 1)
	o.ItemPutDone("q", 1, true)
	if o.QueueDrained("q") {
		t.Fatal("queue with an unconsumed item reported drained")
	}
	wantDivergence(t, o, "queue.unconserved")
}

func TestCondRoundAccounting(t *testing.T) {
	o := New()
	o.CondRoundStart("cv", 1, 4)
	for i := 0; i < 4; i++ {
		o.CondWoken("cv", 1)
	}
	if !o.CondRoundEnd("cv", 1, false) {
		t.Fatal("complete round reported lost wakeup")
	}
	wantClean(t, o)
}

func TestCondLostWakeup(t *testing.T) {
	o := New()
	o.CondRoundStart("cv", 1, 4)
	for i := 0; i < 3; i++ {
		o.CondWoken("cv", 1)
	}
	if o.CondRoundEnd("cv", 1, true) {
		t.Fatal("round with a stranded waiter reported clean")
	}
	wantDivergence(t, o, "cond.lost-wakeup")
}

func TestPoolOccupancy(t *testing.T) {
	o := New()
	o.PoolRunStart("pool", 1, 4)
	for w := 0; w < 4; w++ {
		o.PoolWorkerRan("pool", 1, w)
	}
	if !o.PoolRunEnd("pool", 1) {
		t.Fatal("full occupancy reported mismatched")
	}
	wantClean(t, o)

	o.PoolRunStart("pool", 2, 4)
	o.PoolWorkerRan("pool", 2, 0)
	o.PoolWorkerRan("pool", 2, 0) // worker 0 ran twice, worker 3 never
	o.PoolWorkerRan("pool", 2, 1)
	o.PoolWorkerRan("pool", 2, 2)
	if o.PoolRunEnd("pool", 2) {
		t.Fatal("skewed occupancy reported clean")
	}
	wantDivergence(t, o, "pool.occupancy")
}

func TestBarrierModel(t *testing.T) {
	o := New()
	o.BarrierInit("bar", 3)
	for round := 0; round < 5; round++ {
		for p := 0; p < 3; p++ {
			o.BarrierArrive("bar")
		}
		for p := 0; p < 3; p++ {
			if !o.BarrierReturn("bar") {
				t.Fatalf("round %d: legitimate return flagged", round)
			}
		}
	}
	wantClean(t, o)
	if tot := o.Totals(); tot.BarrierRounds != 5 {
		t.Fatalf("rounds = %d, want 5", tot.BarrierRounds)
	}

	// Early release: a return with only 1 of 3 arrivals announced.
	o.BarrierArrive("bar")
	if o.BarrierReturn("bar") {
		t.Fatal("early release not flagged")
	}
	wantDivergence(t, o, "barrier.early-release")
}

// TestConcurrentShadowing hammers one oracle from many goroutines — the
// per-key locking must keep the model consistent (run under -race).
func TestConcurrentShadowing(t *testing.T) {
	o := New()
	const workers, per = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			key := fmt.Sprintf("tq%d", w%4) // keys shared across goroutine pairs
			for i := 0; i < per; i++ {
				id := uint64(w)<<32 | uint64(i)
				o.TaskSubmitted(key, id)
				o.ItemPutStart(key, id)
				o.ItemPutDone(key, id, true)
				o.ItemGot(key, id)
				o.TaskCompleted(key, id)
			}
		}()
	}
	wg.Wait()
	for k := 0; k < 4; k++ {
		key := fmt.Sprintf("tq%d", k)
		if !o.TaskQueueDrained(key) || !o.QueueDrained(key) {
			t.Fatalf("key %s not clean after concurrent run", key)
		}
	}
	wantClean(t, o)
	tot := o.Totals()
	if want := uint64(workers * per); tot.TasksSubmitted != want || tot.ItemsGot != want {
		t.Fatalf("totals = %+v, want %d each", tot, want)
	}
}
