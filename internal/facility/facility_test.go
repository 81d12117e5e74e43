package facility

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
)

// forEachKind runs f under all three systems, on both software TM
// algorithms plus simulated HTM for the transactional kinds.
func forEachKind(t *testing.T, f func(t *testing.T, tk *Toolkit)) {
	t.Helper()
	cases := []struct {
		name string
		mk   func() *Toolkit
	}{
		{"pthreadCV", func() *Toolkit {
			return &Toolkit{Kind: LockPthread}
		}},
		{"TMCV-wt", func() *Toolkit {
			return &Toolkit{Kind: LockTM, Engine: stm.NewEngine(stm.Config{Algorithm: stm.AlgWriteThrough})}
		}},
		{"TMCV-htm", func() *Toolkit {
			return &Toolkit{Kind: LockTM, Engine: stm.NewEngine(stm.Config{Algorithm: stm.AlgHTM})}
		}},
		{"TMParsec-wt", func() *Toolkit {
			return &Toolkit{Kind: Txn, Engine: stm.NewEngine(stm.Config{Algorithm: stm.AlgWriteThrough})}
		}},
		{"TMParsec-htm", func() *Toolkit {
			return &Toolkit{Kind: Txn, Engine: stm.NewEngine(stm.Config{Algorithm: stm.AlgHTM})}
		}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			f(t, c.mk())
		})
	}
}

func TestKindStrings(t *testing.T) {
	if LockPthread.String() != "Parsec+pthreadCondVar" ||
		LockTM.String() != "Parsec+TMCondVar" ||
		Txn.String() != "TMParsec+TMCondVar" {
		t.Fatal("Kind.String mismatch")
	}
	if LockPthread.Short() != "pthreadCV" || LockTM.Short() != "TMCV" || Txn.Short() != "TMParsec" {
		t.Fatal("Kind.Short mismatch")
	}
	if Kind(9).String() != "unknown" || Kind(9).Short() != "?" {
		t.Fatal("unknown Kind labels")
	}
}

func TestQueueSPSC(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		q := NewQueue[int](tk, 4)
		const items = 500
		var sum int64
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 1; i <= items; i++ {
				if !q.Put(i) {
					t.Error("Put failed on open queue")
					return
				}
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < items; i++ {
				x, ok := q.Get()
				if !ok {
					t.Error("Get failed with items pending")
					return
				}
				sum += int64(x)
			}
		}()
		wg.Wait()
		if want := int64(items) * (items + 1) / 2; sum != want {
			t.Fatalf("sum = %d, want %d", sum, want)
		}
	})
}

func TestQueueMPMCAllItemsExactlyOnce(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		q := NewQueue[int](tk, 8)
		const producers, consumers, per = 3, 3, 150
		var wg sync.WaitGroup
		seen := make([]atomic.Int32, producers*per)
		for p := 0; p < producers; p++ {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					q.Put(p*per + i)
				}
			}()
		}
		var got atomic.Int64
		for c := 0; c < consumers; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					x, ok := q.Get()
					if !ok {
						return
					}
					seen[x].Add(1)
					got.Add(1)
				}
			}()
		}
		// Close once all items are produced and consumed.
		go func() {
			for got.Load() < producers*per {
				time.Sleep(time.Millisecond)
			}
			q.Close()
		}()
		wg.Wait()
		for i := range seen {
			if n := seen[i].Load(); n != 1 {
				t.Fatalf("item %d seen %d times", i, n)
			}
		}
	})
}

func TestQueuePutAfterCloseFails(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		q := NewQueue[int](tk, 2)
		q.Put(1)
		q.Close()
		if q.Put(2) {
			t.Fatal("Put succeeded after Close")
		}
		if x, ok := q.Get(); !ok || x != 1 {
			t.Fatalf("Get = (%d, %v), want (1, true): closed queue must drain", x, ok)
		}
		if _, ok := q.Get(); ok {
			t.Fatal("Get succeeded on drained closed queue")
		}
	})
}

func TestQueueBlockedPutWakesOnClose(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		q := NewQueue[int](tk, 1)
		q.Put(1) // full
		res := make(chan bool, 1)
		go func() { res <- q.Put(2) }()
		time.Sleep(20 * time.Millisecond)
		q.Close()
		select {
		case ok := <-res:
			if ok {
				t.Fatal("blocked Put reported success after Close")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("blocked Put never woke after Close")
		}
	})
}

func TestQueueLen(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		q := NewQueue[string](tk, 4)
		if q.Len() != 0 {
			t.Fatal("fresh queue not empty")
		}
		q.Put("a")
		q.Put("b")
		if got := q.Len(); got != 2 {
			t.Fatalf("Len = %d, want 2", got)
		}
	})
}

func TestBarrierRounds(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		const parties, rounds = 4, 20
		b := NewBarrier(tk, parties)
		var phase [rounds]atomic.Int32
		var wg sync.WaitGroup
		errs := make(chan string, parties)
		for p := 0; p < parties; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for r := 0; r < rounds; r++ {
					phase[r].Add(1)
					b.Arrive()
					// After the barrier, every party must have bumped
					// this round's counter.
					if got := phase[r].Load(); got != parties {
						errs <- "barrier released early"
						return
					}
				}
			}()
		}
		wg.Wait()
		select {
		case e := <-errs:
			t.Fatal(e)
		default:
		}
	})
}

func TestBarrierSingleParty(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		b := NewBarrier(tk, 1)
		for i := 0; i < 5; i++ {
			b.Arrive() // must never block
		}
	})
}

func TestTaskQueueExecutesAll(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		q := NewTaskQueue(tk, 3)
		var ran atomic.Int64
		const tasks = 200
		for i := 0; i < tasks; i++ {
			q.Submit(func() { ran.Add(1) })
		}
		q.Drain()
		if got := ran.Load(); got != tasks {
			t.Fatalf("ran = %d, want %d (Drain returned early)", got, tasks)
		}
		q.Close()
	})
}

func TestTaskQueueDrainThenSubmitMore(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		q := NewTaskQueue(tk, 2)
		var ran atomic.Int64
		for round := 0; round < 3; round++ {
			for i := 0; i < 30; i++ {
				q.Submit(func() { ran.Add(1) })
			}
			q.Drain()
			if got := ran.Load(); got != int64((round+1)*30) {
				t.Fatalf("round %d: ran = %d", round, got)
			}
		}
		q.Close()
	})
}

func TestTaskQueueRecursiveSubmit(t *testing.T) {
	// facesim's tasks spawn subtasks; Drain must wait for those too.
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		q := NewTaskQueue(tk, 3)
		var ran atomic.Int64
		var submit func(depth int)
		submit = func(depth int) {
			q.Submit(func() {
				ran.Add(1)
				if depth > 0 {
					submit(depth - 1)
					submit(depth - 1)
				}
			})
		}
		submit(4) // 2^5 - 1 = 31 tasks
		q.Drain()
		if got := ran.Load(); got != 31 {
			t.Fatalf("ran = %d, want 31", got)
		}
		q.Close()
	})
}

func TestPoolRunsEveryWorker(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		const workers = 4
		p := NewPool(tk, workers)
		var hits [workers]atomic.Int32
		for round := 0; round < 5; round++ {
			p.Run(func(w int) { hits[w].Add(1) })
			for w := 0; w < workers; w++ {
				if got := hits[w].Load(); got != int32(round+1) {
					t.Fatalf("round %d: worker %d ran %d times", round, w, got)
				}
			}
		}
		p.Close()
	})
}

func TestPoolRunBlocksUntilAllDone(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		p := NewPool(tk, 3)
		var inFlight, maxSeen atomic.Int32
		p.Run(func(w int) {
			n := inFlight.Add(1)
			for {
				m := maxSeen.Load()
				if n <= m || maxSeen.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(5 * time.Millisecond)
			inFlight.Add(-1)
		})
		if got := inFlight.Load(); got != 0 {
			t.Fatalf("Run returned with %d workers still in flight", got)
		}
		p.Close()
	})
}

func TestOrderedDeliversInSequence(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		const items = 120
		o := NewOrdered[int](tk, 8)
		var wg sync.WaitGroup
		// Three producers deliver interleaved, out of order.
		for p := 0; p < 3; p++ {
			p := p
			wg.Add(1)
			go func() {
				defer wg.Done()
				for seq := p; seq < items; seq += 3 {
					o.Put(seq, seq*10)
				}
			}()
		}
		go func() {
			wg.Wait()
			o.Close()
		}()
		for want := 0; ; want++ {
			x, ok := o.Next()
			if !ok {
				if want != items {
					t.Fatalf("stream ended at %d, want %d", want, items)
				}
				return
			}
			if x != want*10 {
				t.Fatalf("out of order: got %d at position %d", x, want)
			}
		}
	})
}

func TestOrderedPutNeverBlocks(t *testing.T) {
	// Put must park out-of-order items without blocking (PARSEC dedup's
	// writer buffers unboundedly; a bounded window would deadlock against
	// pipeline backpressure).
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		o := NewOrdered[int](tk, 2)
		done := make(chan struct{})
		go func() {
			for seq := 50; seq > 0; seq-- { // far out of order, reversed
				o.Put(seq, seq)
			}
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("out-of-order Put blocked")
		}
		if got := o.Pending(); got != 50 {
			t.Fatalf("Pending = %d, want 50", got)
		}
		o.Put(0, 0)
		for want := 0; want <= 50; want++ {
			x, ok := o.Next()
			if !ok || x != want {
				t.Fatalf("Next = (%d,%v), want %d", x, ok, want)
			}
		}
		if got := o.Pending(); got != 0 {
			t.Fatalf("Pending = %d after drain", got)
		}
	})
}

func TestOrderedNextBlocksOnGap(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		o := NewOrdered[int](tk, 4)
		o.Put(1, 11) // gap at 0
		got := make(chan int, 1)
		go func() {
			x, _ := o.Next()
			got <- x
		}()
		select {
		case x := <-got:
			t.Fatalf("Next returned %d despite the gap", x)
		case <-time.After(20 * time.Millisecond):
		}
		o.Put(0, 10)
		select {
		case x := <-got:
			if x != 10 {
				t.Fatalf("Next = %d, want 10", x)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Next never woke after the gap filled")
		}
	})
}

func TestFrameSyncWaitFor(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		fs := NewFrameSync(tk, 2)
		released := make(chan struct{})
		go func() {
			fs.WaitFor(0, 10)
			close(released)
		}()
		fs.Publish(0, 5)
		select {
		case <-released:
			t.Fatal("WaitFor released below threshold")
		case <-time.After(20 * time.Millisecond):
		}
		fs.Publish(0, 10)
		select {
		case <-released:
		case <-time.After(10 * time.Second):
			t.Fatal("WaitFor never released")
		}
		if got := fs.Progress(0); got != 10 {
			t.Fatalf("Progress = %d, want 10", got)
		}
	})
}

func TestFrameSyncMonotonic(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		fs := NewFrameSync(tk, 1)
		fs.Publish(0, 7)
		fs.Publish(0, 3) // must not regress
		if got := fs.Progress(0); got != 7 {
			t.Fatalf("Progress = %d, want 7", got)
		}
	})
}

func TestPipelineThreeStages(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		var sum atomic.Int64
		p := NewPipeline[int](tk, 4).
			Stage("double", 2, func(x int, emit func(int)) { emit(x * 2) }).
			Stage("inc", 2, func(x int, emit func(int)) { emit(x + 1) }).
			Stage("sink-prep", 1, func(x int, emit func(int)) { emit(x) }).
			Start(func(x int) { sum.Add(int64(x)) })
		const items = 100
		for i := 1; i <= items; i++ {
			p.Feed(i)
		}
		p.Drain()
		// sum of (2i + 1) for i in 1..items
		want := int64(items*(items+1) + items)
		if got := sum.Load(); got != want {
			t.Fatalf("sum = %d, want %d", got, want)
		}
	})
}

func TestPipelineFanOutStage(t *testing.T) {
	forEachKind(t, func(t *testing.T, tk *Toolkit) {
		var count atomic.Int64
		p := NewPipeline[int](tk, 4).
			Stage("split", 2, func(x int, emit func(int)) {
				emit(x)
				emit(x) // dedup's chunker: 1 -> many
			}).
			Stage("pass", 2, func(x int, emit func(int)) { emit(x) }).
			Start(func(int) { count.Add(1) })
		for i := 0; i < 50; i++ {
			p.Feed(i)
		}
		p.Drain()
		if got := count.Load(); got != 100 {
			t.Fatalf("count = %d, want 100", got)
		}
	})
}

func TestToolkitPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", name)
			}
		}()
		f()
	}
	tkTxn := &Toolkit{Kind: Txn, Engine: stm.NewEngine(stm.Config{})}
	mustPanic("NewCond on Txn toolkit", func() { tkTxn.NewCond() })
	mustPanic("NewCondVar without engine", func() { (&Toolkit{Kind: LockTM}).NewCondVar() })
	tkLock := &Toolkit{Kind: LockPthread}
	mustPanic("zero-capacity queue", func() { NewQueue[int](tkLock, 0) })
	mustPanic("zero-party barrier", func() { NewBarrier(tkLock, 0) })
	mustPanic("zero-worker taskqueue", func() { NewTaskQueue(tkLock, 0) })
	mustPanic("zero-worker pool", func() { NewPool(tkLock, 0) })
	mustPanic("zero-frame framesync", func() { NewFrameSync(tkLock, 0) })
	mustPanic("empty pipeline", func() { NewPipeline[int](tkLock, 1).Start(func(int) {}) })
	mustPanic("zero-worker stage", func() {
		NewPipeline[int](tkLock, 1).Stage("s", 0, func(int, func(int)) {})
	})
}
