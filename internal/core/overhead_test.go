package core

import (
	"sync/atomic"
	"testing"

	"repro/internal/obs"
	"repro/internal/stm"
)

// The causal wake stamp (the flow id, the stamp on the node, consumer
// attribution) rides the hottest path in the stack. With the tracer
// attached but disarmed — the steady state — the committed notify mints
// no flow id (the node's stamp stays 0) and the whole
// count+post+consume cycle stays allocation-free; verify.sh gates on
// this alongside the obs-level EmitFlow guards.
func TestWakeStampDisarmedNoAlloc(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	e.SetTracer(obs.NewTracer(1024))
	cv := New(e, Options{})
	st := &CVStats{}
	cv.SetStats(st)

	n := cv.acquireNode()
	defer cv.releaseNode(n)
	var stamped uint64
	if a := testing.AllocsPerRun(1000, func() {
		n.enqueuedNS.Store(monoNS())
		// The full committed-notify hot path: count, (not) mint, stamp
		// the node, post, consume the banked permit, attribute the wake.
		wakeOne([]stm.CommitArg{{P: n, N: n.gen.Load()}})
		<-n.wake
		stamped |= n.wakeID.Load()
		cv.noteWake(n, obs.WakeByWaiter)
	}); a != 0 {
		t.Errorf("disarmed wake-stamp cycle allocates %.1f times per op", a)
	}
	if stamped != 0 {
		t.Errorf("disarmed committed notify stamped wakeID %d, want 0", stamped)
	}
}

// One tracer routinely spans several engines (a benchmark builds one
// engine per cell, cvstress soaks two kinds back to back), so the
// tracer, not the engine, mints flow ids: two engines sharing an armed
// tracer stamp distinct, non-zero ids.
func TestWakeFlowIDsDistinctAcrossEngines(t *testing.T) {
	tr := obs.NewTracer(1024)
	tr.Enable()
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		e := stm.NewEngine(stm.Config{})
		e.SetTracer(tr)
		cv := New(e, Options{})
		n := cv.acquireNode()
		wakeOne([]stm.CommitArg{{P: n, N: n.gen.Load()}})
		<-n.wake
		id := cv.noteWake(n, obs.WakeByWaiter)
		cv.releaseNode(n)
		if id == 0 || seen[id] {
			t.Fatalf("engine %d stamped flow id %d (already seen: %v)", i, id, seen)
		}
		seen[id] = true
	}
}

// The park itself — a post into one node's slot, a real deschedule on
// the other's — allocates nothing once both nodes exist: two warm nodes
// ping-pong through wakeNode and semWait with stats attached, and the
// measured loop must have parked. verify.sh runs this beside the
// wake-stamp guard.
func TestParkNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow state allocates")
	}
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	st := &CVStats{}
	cv.SetStats(st)
	ping, pong := cv.acquireNode(), cv.acquireNode()
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			cv.semWait(ping, obs.WakeByWaiter, 0, nil)
			select {
			case <-stop:
				return
			default:
			}
			cv.wakeNode(pong, 0)
		}
	}()
	cycle := func() {
		cv.wakeNode(ping, 0)
		cv.semWait(pong, obs.WakeByWaiter, 0, nil)
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	blocks := st.Sem.Blocks.Load()
	a := testing.AllocsPerRun(1000, cycle)
	parked := st.Sem.Blocks.Load() - blocks
	close(stop)
	cv.wakeNode(ping, 0)
	<-done
	if a != 0 {
		t.Errorf("wakeNode+park cycle allocates %.1f times per op", a)
	}
	if parked == 0 {
		t.Error("the measured loop never parked: Sem.Blocks did not grow")
	}
}

// A timeout or cancel loser that wins the unlink pays for removeNode's
// transaction and nothing else: the unlink registers no commit handler
// (inQueue is cleared after the top-level transaction returns), so once
// the engine's transaction pool is warm an enqueue+unlink cycle
// allocates nothing.
func TestLoserUnlinkNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow state allocates")
	}
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	n := cv.acquireNode()
	if a := testing.AllocsPerRun(1000, func() {
		cv.enqueue(nil, n)
		if !cv.removeNode(n) {
			t.Fatal("removeNode did not find the enqueued node")
		}
	}); a != 0 {
		t.Errorf("enqueue+unlink cycle allocates %.1f times per op", a)
	}
}

// A whole untagged wait node cycle — take a node from the pool, enqueue
// it, unlink it as a loser does, return it to the pool — allocates
// nothing once the pool is warm. releaseNode clears the NotifyBest tag
// only on a tagged node: storing a nil any boxes it.
func TestWaitNodeCycleNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow state allocates")
	}
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	cycle := func() {
		n := cv.enqueueSelf(nil, nil)
		if !cv.removeNode(n) {
			t.Fatal("removeNode did not find the enqueued node")
		}
		cv.releaseNode(n)
	}
	cycle()
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Errorf("acquire+enqueue+unlink+release cycle allocates %.1f times per op", a)
	}
}

// countClock counts the package clock's reads (monoNS) until the test
// ends.
func countClock(t *testing.T) *atomic.Int64 {
	t.Helper()
	reads := new(atomic.Int64)
	count := func() { reads.Add(1) }
	clockHook.Store(&count)
	t.Cleanup(func() { clockHook.Store(nil) })
	return reads
}

// waitNotifyCycle is one whole wait cycle on one goroutine: enqueue a
// node, dequeue it with a naked NotifyOne (whose commit handler posts
// it), take the post in park, and return the node to the pool.
func waitNotifyCycle(t *testing.T, cv *CondVar) {
	n := cv.enqueueSelf(nil, nil)
	// cvlint:ignore nakednotify the cycle has no predicate: the wait machinery itself is the subject
	if !cv.NotifyOne(nil) {
		t.Fatal("NotifyOne found no waiter")
	}
	if _, notified := cv.park(n, obs.WakeByWaiter, 0, nil); !notified {
		t.Fatal("park did not take the post")
	}
}

// With nothing reading the node stamps — no stats sink, the tracer
// attached but disarmed, no registry — a wait cycle
// reads no clock, whether the waiter finds its post already in the slot
// or deschedules for it. With a stats sink the same cycle stamps the
// enqueue, the notify and the wake. verify.sh runs this beside the
// allocation guards.
func TestDisarmedWaitCycleNoClock(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	e.SetTracer(obs.NewTracer(1024))
	cv := New(e, Options{})
	reads := countClock(t)
	const cycles = 100
	for i := 0; i < cycles; i++ {
		waitNotifyCycle(t, cv)
	}
	if got := reads.Load(); got != 0 {
		t.Errorf("disarmed wait cycle read the clock %d times in %d cycles, want 0", got, cycles)
	}

	// The descheduling path: two nodes ping-pong between two goroutines,
	// so the waiter nearly always finds its slot empty and parks.
	ping, pong := cv.acquireNode(), cv.acquireNode()
	const rounds = 1000
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < rounds; i++ {
			cv.semWait(ping, obs.WakeByWaiter, 0, nil)
			cv.wakeNode(pong, 0)
		}
	}()
	for i := 0; i < rounds; i++ {
		cv.wakeNode(ping, 0)
		cv.semWait(pong, obs.WakeByWaiter, 0, nil)
	}
	<-done
	if got := reads.Load(); got != 0 {
		t.Errorf("disarmed park cycle read the clock %d times in %d rounds, want 0", got, rounds)
	}

	st := &CVStats{}
	cv = New(e, Options{})
	cv.SetStats(st)
	for i := 0; i < cycles; i++ {
		waitNotifyCycle(t, cv)
	}
	if got := reads.Load(); got < 3*cycles {
		t.Errorf("wait cycle with stats read the clock %d times in %d cycles, want >= %d", got, cycles, 3*cycles)
	}
	if got := st.EnqueueToNotify.Snapshot().Count; got != cycles {
		t.Errorf("EnqueueToNotify observed %d waits, want %d", got, cycles)
	}
}

// A whole wait cycle — enqueue, naked NotifyOne, park, release — allocates
// nothing once the pools are warm: the enqueue and the notify are
// one-stripe transactions on pooled Txs, and the notify's commit handler
// is pre-bound (a function plus its node and generation), not a closure.
func TestWaitNotifyCycleNoAlloc(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	if raceEnabled || e.DebugChecks() {
		t.Skip("race detector shadow state and the sanitizer's handler wrapper allocate")
	}
	cv := New(e, Options{})
	cycle := func() { waitNotifyCycle(t, cv) }
	cycle()
	if a := testing.AllocsPerRun(1000, cycle); a != 0 {
		t.Errorf("enqueue+NotifyOne+park+release cycle allocates %.1f times per op", a)
	}
}

// A NotifyAll of a 16-waiter batch allocates nothing either: the batch's
// nodes and generations are the pre-bound handler's arguments, pushed
// into the transaction's retained argument log.
func TestNotifyAllCycleNoAlloc(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	if raceEnabled || e.DebugChecks() {
		t.Skip("race detector shadow state and the sanitizer's handler wrapper allocate")
	}
	cv := New(e, Options{})
	var nodes [16]*Node
	cycle := func() {
		for i := range nodes {
			nodes[i] = cv.enqueueSelf(nil, nil)
		}
		if got := cv.NotifyAll(nil); got != len(nodes) {
			t.Fatalf("NotifyAll woke %d, want %d", got, len(nodes))
		}
		for _, n := range nodes {
			cv.park(n, obs.WakeByWaiter, 0, nil)
		}
	}
	cycle()
	if a := testing.AllocsPerRun(200, cycle); a != 0 {
		t.Errorf("16-waiter NotifyAll cycle allocates %.1f times per op", a)
	}
}
