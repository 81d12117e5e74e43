package core

import (
	"testing"

	"repro/internal/obs"
	"repro/internal/stm"
)

// The causal wake stamp (wakeID mint, the stamp on the node, consumer
// attribution) rides the hottest path in the stack: every
// notify→post→wake cycle pays it whether or not a tracer is armed. With
// the tracer disarmed — the steady state — the whole stamp+post+consume
// cycle must stay allocation-free; verify.sh gates on this alongside
// the obs-level EmitFlow guards.
func TestWakeStampDisarmedNoAlloc(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	st := &CVStats{}
	cv.SetStats(st)

	n := cv.acquireNode()
	defer cv.releaseNode(n)
	if a := testing.AllocsPerRun(1000, func() {
		n.enqueuedNS.Store(monoNS())
		// The full committed-notify hot path: mint a wakeID, stamp the
		// node, post, consume the banked permit, attribute the wake.
		cv.wakeNode(n, cv.e.NextWakeID())
		<-n.wake
		cv.noteWake(n, obs.WakeByWaiter)
	}); a != 0 {
		t.Errorf("disarmed wake-stamp cycle allocates %.1f times per op", a)
	}
}

// The park itself — a post into one node's slot, a real deschedule on
// the other's — allocates nothing once both nodes exist: two warm nodes
// ping-pong through wakeNode and semWait with stats attached. verify.sh
// runs this beside the wake-stamp guard.
func TestParkNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector shadow state allocates")
	}
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	cv.SetStats(&CVStats{})
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
	a := testing.AllocsPerRun(1000, cycle)
	close(stop)
	cv.wakeNode(ping, 0)
	<-done
	if a != 0 {
		t.Errorf("wakeNode+park cycle allocates %.1f times per op", a)
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
