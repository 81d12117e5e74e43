package main

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/facility"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/introspect"
	"repro/internal/obs/registry"
	"repro/internal/oracle"
	"repro/internal/stm"
	"repro/internal/syncx"
)

// blackboxConfig carries the -mode blackbox flag set.
type blackboxConfig struct {
	goroutines  int
	seed        uint64
	faultrate   float64
	duration    time.Duration
	dumpDir     string
	bugLostWake bool
}

// runBlackbox drives seeded, replayable action scripts against the
// facility layer (task queue, bounded queue, pool, barrier and broadcast
// rounds, under LockTM and Txn) while an in-memory expected-state oracle
// (internal/oracle) shadows every operation of the live run. The exit
// code separates invariant violations (2) from stuck/hung facilities (3);
// DESIGN.md §14 documents the protocol.
func runBlackbox(cfg blackboxConfig) int {
	orc := oracle.New()

	// Instrumented like chaos mode: tracer + flight recorder stand by so a
	// failure (or a signal-initiated drain) leaves a forensic dump.
	reg := registry.Default
	if reg.Tracer() == nil {
		tr := obs.NewTracer(1 << 16)
		tr.Enable()
		reg.SetTracer(tr)
	}
	rec := introspect.NewRecorder(cfg.dumpDir, reg)

	code := exitOK
	parked := 0
	for _, kind := range []facility.Kind{facility.LockTM, facility.Txn} {
		c, w := runBlackboxKind(kind, orc, cfg, reg)
		code = worseCode(code, c)
		parked += w
	}

	divs := orc.Divergences()
	for _, d := range divs {
		fmt.Println(d)
	}
	if len(divs) > 0 {
		code = worseCode(code, exitInvariant)
	}
	if parked > 0 {
		code = worseCode(code, exitStuck)
	}
	tot := orc.Totals()
	fmt.Printf("blackbox: tasks=%d items=%d cond_rounds=%d pool_rounds=%d barrier_rounds=%d\n",
		tot.TasksCompleted, tot.ItemsGot, tot.CondRounds, tot.PoolRounds, tot.BarrierRounds)
	fmt.Printf("blackbox: divergences=%d parked_waiters=%d\n", len(divs), parked)
	if code != exitOK || stopFlag.Load() {
		tag := "blackbox-failure"
		if code == exitOK {
			tag = "signal-drain"
		}
		if path, err := rec.Trigger(tag, map[string]any{
			"seed": cfg.seed, "exit": code,
		}); err == nil && path != "" {
			fmt.Printf("flight dump: %s\n", path)
		}
	}
	return code
}

// runBlackboxKind soaks one system and returns (exit code, parked
// waiters left behind after the drain).
func runBlackboxKind(kind facility.Kind, orc *oracle.Oracle, cfg blackboxConfig, reg *registry.Registry) (int, int) {
	e := stm.NewEngine(stm.Config{Name: "bb/" + kind.Short()})
	// The injector and the actor scripts draw from one derived seed, a
	// pure function of -seed, so a replay line redraws both.
	runSeed := fault.DeriveSeed(cfg.seed, 0)
	var in *fault.Injector
	if cfg.faultrate > 0 {
		in = chaosRules(runSeed, cfg.faultrate)
		e.SetFault(in)
		in.Arm()
		defer in.Disarm()
	}
	e.SetTracer(reg.Tracer())
	label := "bb" + kind.Short()
	tk := &facility.Toolkit{Kind: kind, Engine: e, Label: label}

	tqKey := label + ".taskq"
	qKey := label + ".q"
	poolKey := label + ".pool"
	barKey := label + ".barrier"
	cvKey := label + ".cv"

	deadline := time.Now().Add(cfg.duration)
	actors := cfg.goroutines
	if actors < 2 {
		actors = 2
	}
	producers := actors / 2

	const poolWorkers = 3
	const barParties = 3
	tq := facility.NewTaskQueue(tk, 4)
	q := facility.NewQueue[uint64](tk, 8)
	pool := facility.NewPool(tk, poolWorkers)
	bar := facility.NewBarrier(tk, barParties)

	var tasksRun atomic.Int64
	var itemSeq atomic.Uint64
	var putOK, got atomic.Int64

	// Producers: each actor replays a seeded action script — the draw
	// sequence is a pure function of (seed, kind, actor), so a failing
	// run's submissions are reproduced by the replay command.
	tw := &taskWrapper{orc: orc, key: tqKey}
	var prodWg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		prodWg.Add(1)
		go func() {
			defer prodWg.Done()
			actorSeed := runSeed ^ uint64(kind)<<32 ^ uint64(p)
			rng := rand.New(rand.NewSource(int64(actorSeed)))
			for running(deadline) {
				switch rng.Intn(4) {
				case 0:
					tq.Submit(tw.wrap(func() { tasksRun.Add(1) }))
				case 1:
					batch := make([]func(), 1+rng.Intn(4))
					for i := range batch {
						batch[i] = tw.wrap(func() { tasksRun.Add(1) })
					}
					tq.SubmitBatch(batch)
				default:
					id := itemSeq.Add(1)
					orc.ItemPutStart(qKey, id)
					ok := q.Put(id)
					orc.ItemPutDone(qKey, id, ok)
					if ok {
						putOK.Add(1)
					}
				}
				if rng.Intn(8) == 0 {
					time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
				}
			}
		}()
	}

	var consWg sync.WaitGroup
	for c := 0; c < producers; c++ {
		consWg.Add(1)
		go func() {
			defer consWg.Done()
			for {
				id, ok := q.Get()
				if !ok {
					return
				}
				orc.ItemGot(qKey, id)
				got.Add(1)
			}
		}()
	}

	// Pool driver: every generation must run exactly once on each worker.
	var poolWg sync.WaitGroup
	var poolGen uint64
	poolWg.Add(1)
	go func() {
		defer poolWg.Done()
		for running(deadline) {
			poolGen++
			gen := poolGen
			orc.PoolRunStart(poolKey, gen, poolWorkers)
			pool.Run(func(w int) { orc.PoolWorkerRan(poolKey, gen, w) })
			orc.PoolRunEnd(poolKey, gen)
		}
	}()

	// Barrier party: a fixed round count (not the deadline) bounds the
	// loop, so every party makes the same number of arrivals and none is
	// stranded mid-round by the clock.
	const barRounds = 40
	orc.BarrierInit(barKey, barParties)
	var barWg sync.WaitGroup
	for b := 0; b < barParties; b++ {
		barWg.Add(1)
		go func() {
			defer barWg.Done()
			for r := 0; r < barRounds; r++ {
				orc.BarrierArrive(barKey)
				bar.Arrive()
				orc.BarrierReturn(barKey)
			}
		}()
	}

	// Broadcast rounds on the main goroutine: park a party behind a
	// generation predicate, flip, wake the batch with one NotifyAll, and
	// have the oracle count the resumes.
	cv := tk.NewCondVar()
	var cm syncx.Mutex
	cgen := 0
	condRounds := 0
	for round := uint64(1); running(deadline); round++ {
		const parties = 6
		cm.Lock()
		start := cgen
		cm.Unlock()
		orc.CondRoundStart(cvKey, round, parties)
		var wg sync.WaitGroup
		wg.Add(parties)
		for w := 0; w < parties; w++ {
			go func() {
				defer wg.Done()
				cm.Lock()
				for cgen == start {
					cv.WaitLocked(&cm)
				}
				cm.Unlock()
				orc.CondWoken(cvKey, round)
			}()
		}
		// The generation is read and the wait entered under one lock
		// hold, so once Len reaches the party size every waiter is
		// enqueued behind the old generation.
		waitUntil(func() bool { return cv.Len() >= parties }, 5*time.Second)
		cm.Lock()
		cgen++
		cm.Unlock()
		if cfg.bugLostWake {
			// Intentional lost-wakeup bug: wake one waiter short of the
			// batch. The oracle's round accounting must catch the
			// stranded waiter (the verify.sh negative gate asserts it).
			cv.NotifyN(nil, parties-1)
		} else {
			cv.NotifyAll(nil)
		}
		if awaitOrStuck(3*time.Second, wg.Wait) {
			orc.CondRoundEnd(cvKey, round, false)
		} else {
			orc.CondRoundEnd(cvKey, round, true) // records the lost wake-up
			cv.NotifyAll(nil)                    // release stragglers so the run can exit and report
			wg.Wait()
		}
		condRounds++
	}

	// Quiesce — the graceful drain (this same path serves SIGTERM): stop
	// submitting, drain the task queue, drain and close the bounded
	// queue, shut the pool down, and only then count parked waiters.
	stuckAt := ""
	prodWg.Wait()
	if !awaitOrStuck(10*time.Second, tq.Drain) {
		stuckAt = "task-queue drain"
	} else {
		orc.TaskQueueDrained(tqKey)
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := tq.CloseCtx(ctx); err != nil {
			stuckAt = "task-queue close"
		}
		cancel()
	}
	if stuckAt == "" {
		// Producers have stopped, so putOK is final; wait for the
		// consumers to catch up before closing the queue.
		if !waitUntil(func() bool { return got.Load() >= putOK.Load() }, 10*time.Second) {
			stuckAt = "queue drain"
		} else {
			q.Close()
			if !awaitOrStuck(10*time.Second, consWg.Wait) {
				stuckAt = "queue consumers"
			} else {
				orc.QueueDrained(qKey)
			}
		}
	}
	if stuckAt == "" {
		if !awaitOrStuck(10*time.Second, poolWg.Wait) {
			stuckAt = "pool driver"
		} else {
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := pool.CloseCtx(ctx); err != nil {
				stuckAt = "pool close"
			}
			cancel()
		}
	}
	if stuckAt == "" && !awaitOrStuck(20*time.Second, barWg.Wait) {
		stuckAt = "barrier rounds"
	}

	waiters := tk.Waiters()
	fmt.Printf("%-22s: tasks=%d items=%d/%d cond_rounds=%d pool_rounds=%d barrier_rounds=%d faults=%d waiters=%d\n",
		kind, tasksRun.Load(), putOK.Load(), got.Load(), condRounds, poolGen, barRounds,
		in.FiredTotal(), waiters)
	if stuckAt != "" {
		fmt.Printf("%-22s: STUCK in %s (timeout waiting for the facility to quiesce)\n", kind, stuckAt)
		return exitStuck, waiters
	}
	return exitOK, waiters
}

// taskWrapper reports a task queue's tasks to the oracle under key: each
// task gets the next id, TaskSubmitted when it is wrapped (before Submit
// or SubmitBatch can make it visible to a worker), and TaskCompleted
// after its body returns.
type taskWrapper struct {
	orc *oracle.Oracle
	key string
	seq atomic.Uint64
}

// wrap records task's submission and returns it wrapped to record its
// completion.
func (w *taskWrapper) wrap(task func()) func() {
	id := w.seq.Add(1)
	w.orc.TaskSubmitted(w.key, id)
	return func() {
		task()
		w.orc.TaskCompleted(w.key, id)
	}
}
