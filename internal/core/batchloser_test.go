package core

import (
	"context"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/syncx"
	"repro/internal/waketrace"
)

// Batch-loser edge case: a waiter whose timeout/cancel fires after a
// committed NotifyAll dequeued it, but before the commit handler's post
// reaches it, loses the unlink race and must keep the permit — report
// notified, consume the post, and be attributed to the loser kind
// (by=timeout / by=cancel), not to a live waiter. The reconstructed flow
// stays intact: one root, three posts, three consumes.
//
// Choreography: three waiters enqueue in order (A live, B the loser, C
// live) and a 100%-rate CVNotify delay stalls every committed post for
// at least half of postStall, so B's post lands two stalls — at least
// one whole postStall — after the batch dequeue, and B gives up inside
// that window.
func testBatchLoserKeepsPermit(t *testing.T, wantBy int64,
	startLoser func(cv *CondVar, m *syncx.Mutex, res chan<- bool)) {
	const postStall = 160 * time.Millisecond

	e := stm.NewEngine(stm.Config{})
	in := fault.New(0xC4A15).Set(fault.CVNotify,
		fault.Rule{Rate: 1.0, Action: fault.ActDelay, Delay: postStall})
	e.SetFault(in)
	tr := obs.NewTracer(4096)
	e.SetTracer(tr)
	tr.Enable()
	var st CVStats
	cv := New(e, Options{})
	cv.SetStats(&st)

	var m syncx.Mutex
	live := make(chan struct{}, 2)
	loser := make(chan bool, 1)
	startLive := func() {
		go func() {
			m.Lock()
			// cvlint:ignore waitloop harness parks one-shot waiters by design to pin queue positions
			cv.WaitLocked(&m)
			m.Unlock()
			live <- struct{}{}
		}()
	}
	startLive()
	waitUntil(t, "A enqueued", func() bool { return cv.Len() == 1 })
	startLoser(cv, &m, loser)
	waitUntil(t, "B enqueued", func() bool { return cv.Len() == 2 })
	startLive()
	waitUntil(t, "C enqueued", func() bool { return cv.Len() == 3 })

	in.Arm()
	defer in.Disarm()
	// cvlint:ignore nakednotify the test notifies with no predicate: the batch post loop itself is the subject
	if n := cv.NotifyAll(nil); n != 3 {
		t.Fatalf("NotifyAll woke %d, want 3", n)
	}

	deadline := time.After(30 * time.Second)
	for i := 0; i < 2; i++ {
		select {
		case <-live:
		case <-deadline:
			t.Fatal("a live waiter of the batch never woke")
		}
	}
	select {
	case ok := <-loser:
		if !ok {
			t.Fatal("loser reported un-notified: its banked wake was lost")
		}
	case <-deadline:
		t.Fatal("loser never returned")
	}
	tr.Disable()

	// Consumer attribution: two live waiters, one loser of the expected
	// kind — and the loser still counts as a completed wait.
	snap := st.Snapshot()
	if snap["wake_consumed_waiter"] != 2 {
		t.Errorf("wake_consumed_waiter = %d, want 2", snap["wake_consumed_waiter"])
	}
	wantKey := "wake_consumed_" + obs.WakeConsumerName(wantBy)
	if snap[wantKey] != 1 {
		t.Errorf("%s = %d, want 1 (snapshot %v)", wantKey, snap[wantKey], snap)
	}
	if snap["waits"] != 3 || snap["sem_posts"] != 3 {
		t.Errorf("waits/sem_posts = %d/%d, want 3/3 (each waiter woken exactly once)", snap["waits"], snap["sem_posts"])
	}

	// The reconstructed flow: one root announcing 3, three posts, three
	// consumes, the loser's among them.
	flows := waketrace.Build(waketrace.FromObs(tr.Events()))
	if problems := waketrace.Check(flows); len(problems) != 0 {
		t.Fatalf("structural check failed: %v", problems)
	}
	if len(flows) != 1 || !flows[0].HasRoot || flows[0].Batch != 3 || len(flows[0].Wakes) != 3 {
		t.Fatalf("reconstructed %d flow(s) %+v, want one rooted flow of batch 3 with 3 posts", len(flows), flows)
	}
	total, by := flows[0].Consumed()
	if total != 3 || by["waiter"] != 2 || by[obs.WakeConsumerName(wantBy)] != 1 {
		t.Fatalf("consumed = %d %v, want 3 with 2 waiter + 1 %s", total, by, obs.WakeConsumerName(wantBy))
	}
}

func TestBatchLoserKeepsPermitTimeout(t *testing.T) {
	testBatchLoserKeepsPermit(t, obs.WakeByTimeout,
		func(cv *CondVar, m *syncx.Mutex, res chan<- bool) {
			go func() {
				m.Lock()
				// Expires before B's post, which trails the batch dequeue
				// by 160ms or more however late the NotifyAll starts.
				// cvlint:ignore waitloop harness probes the timeout-loser path one-shot by design
				ok := cv.WaitLockedTimeout(m, 100*time.Millisecond)
				m.Unlock()
				res <- ok
			}()
		})
}

func TestBatchLoserKeepsPermitCancel(t *testing.T) {
	testBatchLoserKeepsPermit(t, obs.WakeByCancel,
		func(cv *CondVar, m *syncx.Mutex, res chan<- bool) {
			ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
			go func() {
				defer cancel()
				m.Lock()
				// cvlint:ignore waitloop harness probes the cancel-loser path one-shot by design
				ok := cv.WaitLockedCtx(m, ctx)
				m.Unlock()
				res <- ok
			}()
		})
}
