package core

import (
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/syncx"
)

// parkWaiters starts n WaitLocked waiters on cv, one at a time so the
// queue order is known, and returns their completion channels in
// enqueue order plus the shared mutex. Each waiter loops on the gen
// predicate, so a spurious continuation would re-wait instead of
// completing.
func parkWaiters(t *testing.T, cv *CondVar, m *syncx.Mutex, gen *int, n int) []chan struct{} {
	t.Helper()
	done := make([]chan struct{}, n)
	for i := 0; i < n; i++ {
		done[i] = make(chan struct{})
		ch := done[i]
		go func() {
			m.Lock()
			g := *gen
			for *gen == g {
				cv.WaitLocked(m)
			}
			m.Unlock()
			close(ch)
		}()
		deadline := time.Now().Add(5 * time.Second)
		for cv.Len() != i+1 {
			if time.Now().After(deadline) {
				t.Fatalf("waiter %d never enqueued (Len=%d)", i, cv.Len())
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	return done
}

func collectAll(t *testing.T, done []chan struct{}, what string) {
	t.Helper()
	for i, ch := range done {
		select {
		case <-ch:
		case <-time.After(10 * time.Second):
			t.Fatalf("%s waiter %d never woke", what, i)
		}
	}
}

// A batched NotifyAll must wake every waiter exactly once — conservation
// over a wide batch — and leave the queue empty.
func TestNotifyAllBatchedConservation(t *testing.T) {
	const waiters = 64
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	st := &CVStats{}
	cv.SetStats(st)

	var m syncx.Mutex
	gen := 0
	done := parkWaiters(t, cv, &m, &gen, waiters)
	m.Lock()
	gen++
	m.Unlock()
	if n := cv.NotifyAll(nil); n != waiters {
		t.Fatalf("NotifyAll = %d, want %d", n, waiters)
	}
	collectAll(t, done, "broadcast")
	if n := cv.Len(); n != 0 {
		t.Errorf("Len = %d after broadcast, want 0", n)
	}
	snap := st.Snapshot()
	if snap["wake_consumed_waiter"] != waiters || snap["waits"] != waiters {
		t.Errorf("wake_consumed_waiter/waits = %d/%d, want %d/%d", snap["wake_consumed_waiter"], snap["waits"], waiters, waiters)
	}
	if snap["notify_alls"] != 1 {
		t.Errorf("notify_alls = %d, want 1", snap["notify_alls"])
	}
	if snap["sem_posts"] != waiters {
		t.Errorf("sem_posts = %d, want %d (exactly one post per waiter)", snap["sem_posts"], waiters)
	}
	if h := st.Histograms()["broadcast_ns"]; h.Count != 1 {
		t.Errorf("broadcast_ns count = %d, want 1 (last wake observes the batch)", h.Count)
	}
}

// NotifyN pacing: a partial batch wakes exactly the first max waiters in
// queue order and leaves the rest enqueued.
func TestNotifyNPartialBatch(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	st := &CVStats{}
	cv.SetStats(st)

	var m syncx.Mutex
	gen := 0
	done := parkWaiters(t, cv, &m, &gen, 6)
	m.Lock()
	gen++
	m.Unlock()

	if n := cv.NotifyN(nil, 0); n != 0 {
		t.Fatalf("NotifyN(0) = %d, want 0", n)
	}
	if n := cv.NotifyN(nil, 4); n != 4 {
		t.Fatalf("NotifyN(4) = %d, want 4", n)
	}
	collectAll(t, done[:4], "paced")
	// The tail of the queue must still be parked.
	time.Sleep(5 * time.Millisecond)
	for i := 4; i < 6; i++ {
		select {
		case <-done[i]:
			t.Fatalf("waiter %d woke before its NotifyN turn (FIFO violated)", i)
		default:
		}
	}
	if n := cv.Len(); n != 2 {
		t.Fatalf("Len = %d after NotifyN(4), want 2", n)
	}
	if n := cv.NotifyN(nil, -1); n != 2 {
		t.Fatalf("NotifyN(-1) = %d, want 2", n)
	}
	collectAll(t, done[4:], "drain")
	snap := st.Snapshot()
	if snap["sem_posts"] != 6 {
		t.Errorf("sem_posts = %d, want 6", snap["sem_posts"])
	}
	if h := st.Histograms()["broadcast_ns"]; h.Count != 2 {
		t.Errorf("broadcast_ns count = %d, want 2 batches", h.Count)
	}
}

// A notify whose attempt restarts is counted once, at commit: the
// aborted attempt's dequeue wakes nobody (Algorithm 5, line 9), so it
// counts for nothing either. Each body restarts once after its notify.
func TestRestartedNotifyCountedOnce(t *testing.T) {
	for _, tc := range []struct {
		name    string
		waiters int
		key     string
		notify  func(cv *CondVar, tx *stm.Tx)
	}{
		// The waiters' predicate is gen, bumped under their mutex first.
		// cvlint:ignore nakednotify the predicate write precedes the transaction
		{"NotifyOne", 1, "notify_ones", func(cv *CondVar, tx *stm.Tx) { cv.NotifyOne(tx) }},
		// cvlint:ignore nakednotify the predicate write precedes the transaction
		{"NotifyAll", 2, "notify_alls", func(cv *CondVar, tx *stm.Tx) { cv.NotifyAll(tx) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := stm.NewEngine(stm.Config{})
			cv := New(e, Options{})
			st := &CVStats{}
			cv.SetStats(st)

			var m syncx.Mutex
			gen := 0
			done := parkWaiters(t, cv, &m, &gen, tc.waiters)
			m.Lock()
			gen++
			m.Unlock()
			attempts := 0
			e.MustAtomic(func(tx *stm.Tx) {
				attempts++
				tc.notify(cv, tx)
				if attempts == 1 {
					tx.Restart()
				}
			})
			collectAll(t, done, tc.name)
			snap := st.Snapshot()
			if attempts != 2 || snap[tc.key] != 1 || snap["sem_posts"] != int64(tc.waiters) {
				t.Errorf("attempts %d, %s %d, sem_posts %d; want 2, 1, %d",
					attempts, tc.key, snap[tc.key], snap["sem_posts"], tc.waiters)
			}
		})
	}
}

// Each committed notify is counted once, under its kind: a single
// dequeue (NotifyOne, NotifyBest) adds to notify_ones and observes no
// broadcast_ns; a batch (NotifyN, NotifyAll) adds to notify_alls and
// observes broadcast_ns once, when its last waiter resumes. The same
// notify inside a cancelled transaction counts nothing.
func TestNotifyStatsSplit(t *testing.T) {
	first := func(any) int64 { return 0 } // ties go to the head
	for _, tc := range []struct {
		name              string
		notify            func(cv *CondVar, tx *stm.Tx) int
		ones, alls, bcast int64
	}{
		// The waiters' predicate is gen, bumped under their mutex first.
		// cvlint:ignore nakednotify the predicate write precedes the transaction
		{"NotifyOne", func(cv *CondVar, tx *stm.Tx) int { return boolInt(cv.NotifyOne(tx)) }, 1, 0, 0},
		// cvlint:ignore nakednotify the predicate write precedes the transaction
		{"NotifyBest", func(cv *CondVar, tx *stm.Tx) int { return boolInt(cv.NotifyBest(tx, first)) }, 1, 0, 0},
		// cvlint:ignore nakednotify the predicate write precedes the transaction
		{"NotifyN", func(cv *CondVar, tx *stm.Tx) int { return cv.NotifyN(tx, 2) }, 0, 1, 1},
		// cvlint:ignore nakednotify the predicate write precedes the transaction
		{"NotifyAll", func(cv *CondVar, tx *stm.Tx) int { return cv.NotifyAll(tx) }, 0, 1, 1},
	} {
		for _, cancel := range []bool{false, true} {
			name := tc.name
			if cancel {
				name += "/cancelled"
			}
			t.Run(name, func(t *testing.T) {
				e := stm.NewEngine(stm.Config{})
				cv := New(e, Options{})
				st := &CVStats{}
				cv.SetStats(st)

				var m syncx.Mutex
				gen := 0
				done := parkWaiters(t, cv, &m, &gen, 3)
				m.Lock()
				gen++
				m.Unlock()
				woken := 0
				err := e.Atomic(func(tx *stm.Tx) {
					woken = tc.notify(cv, tx)
					if cancel {
						tx.Cancel(errAbortProvoked)
					}
				})
				want := [3]int64{tc.ones, tc.alls, tc.bcast}
				if cancel {
					if err == nil {
						t.Fatal("cancelled transaction committed")
					}
					want = [3]int64{}
					woken = 0
				}
				collectAll(t, done[:woken], name)
				got := [3]int64{st.NotifyOnes.Load(), st.NotifyAlls.Load(), st.BroadcastNanos.Count()}
				if got != want {
					t.Errorf("notify_ones, notify_alls, broadcast_ns count = %v, want %v", got, want)
				}

				m.Lock()
				cv.NotifyAll(nil)
				m.Unlock()
				collectAll(t, done[woken:], "remaining")
			})
		}
	}
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// A batched NotifyAll inside a transaction that aborts wakes nobody and
// leaves the queue intact — the single commit handler is discarded with
// the transaction, exactly like the per-node handlers were.
func TestNotifyAllBatchAbortDiscards(t *testing.T) {
	e := stm.NewEngine(stm.Config{Algorithm: stm.AlgWriteThrough})
	tr := obs.NewTracer(4096)
	e.SetTracer(tr)
	tr.Enable()
	cv := New(e, Options{})
	st := &CVStats{}
	cv.SetStats(st)

	var m syncx.Mutex
	gen := 0
	done := parkWaiters(t, cv, &m, &gen, 3)

	sentinel := errAbortProvoked
	err := e.Atomic(func(tx *stm.Tx) {
		if n := cv.NotifyAll(tx); n != 3 {
			t.Errorf("NotifyAll in doomed txn = %d, want 3", n)
		}
		tx.Cancel(sentinel)
	})
	if err == nil {
		t.Fatal("doomed transaction committed")
	}
	if n := cv.Len(); n != 3 {
		t.Fatalf("Len = %d after aborted broadcast, want 3", n)
	}
	got := traceCounts(tr)
	if got[obs.EvCVNotify] != 0 || got[obs.EvCVSemPost] != 0 {
		t.Fatalf("aborted broadcast leaked notify events: %v", got)
	}
	if n := st.Snapshot()["sem_posts"]; n != 0 {
		t.Fatalf("aborted broadcast posted %d semaphores", n)
	}

	// Commit it for real: notify, sempost and wake appear for every waiter.
	m.Lock()
	gen++
	m.Unlock()
	e.MustAtomic(func(tx *stm.Tx) {
		if n := cv.NotifyAll(tx); n != 3 {
			t.Errorf("committed NotifyAll = %d, want 3", n)
		}
	})
	collectAll(t, done, "post-abort")
	tr.Disable()
	got = traceCounts(tr)
	for _, want := range []obs.EventType{obs.EvCVNotify, obs.EvCVSemPost, obs.EvCVWake} {
		if got[want] != 3 {
			t.Errorf("%s count = %d, want 3 (all: %v)", want, got[want], got)
		}
	}
}

// The commit handler must detect a recycled node (ABA): a batch
// wakeCommitted against a stale generation capture panics under the
// sanitizer.
func TestSanitizerBatchRecycledNode(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	e.SetDebugChecks(true)
	cv := New(e, Options{})

	n := cv.acquireNode()
	staleGen := n.gen.Load()
	n.gen.Add(1) // the node was recycled after the dequeue captured staleGen

	defer func() {
		if recover() == nil {
			t.Fatal("wakeCommitted against a recycled node did not panic under the sanitizer")
		}
	}()
	wakeAll([]stm.CommitArg{{P: n, N: staleGen}})
}

var errAbortProvoked = errProvoked{}

type errProvoked struct{}

func (errProvoked) Error() string { return "provoked abort" }
