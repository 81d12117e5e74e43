package core

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/stm"
	"repro/internal/syncx"
)

func TestWaitLockedCtxCancelled(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		cv := New(e, Options{})
		var st CVStats
		cv.SetStats(&st)
		var m syncx.Mutex
		ctx, cancel := context.WithCancel(context.Background())
		res := make(chan bool, 1)
		go func() {
			m.Lock()
			ok := cv.WaitLockedCtx(&m, ctx)
			if !m.Locked() {
				t.Error("mutex not re-acquired after cancellation")
			}
			m.Unlock()
			res <- ok
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
		cancel()
		select {
		case ok := <-res:
			if ok {
				t.Fatal("cancelled wait reported notification")
			}
		case <-time.After(10 * time.Second):
			t.Fatal("cancelled waiter stuck")
		}
		// The node must have been unlinked and retired: empty queue and
		// no ghost for a later notify to find.
		if n := cv.Len(); n != 0 {
			t.Fatalf("queue len=%d after cancel, want 0", n)
		}
		if cv.NotifyOne(nil) {
			t.Fatal("notify found a ghost waiter")
		}
		if st.Cancels.Load() != 1 {
			t.Fatalf("Cancels = %d, want 1", st.Cancels.Load())
		}
	})
}

func TestWaitLockedCtxNotified(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	res := make(chan bool, 1)
	go func() {
		m.Lock()
		ok := cv.WaitLockedCtx(&m, context.Background())
		m.Unlock()
		res <- ok
	}()
	waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
	cv.NotifyOne(nil)
	select {
	case ok := <-res:
		if !ok {
			t.Fatal("notified wait reported cancellation")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter stuck")
	}
}

// TestWaitLockedCtxRaceNeverLeaks is the acceptance hammer for the
// cancel/notify race: across many iterations, every notification that
// found a waiter is consumed (wait returns true), every cancellation
// that won leaves no node in the queue, and — checked after each
// iteration by an expiring timed wait on the recycled node — no permit
// is ever stranded in a node semaphore to wake a future waiter
// spuriously. Run with -tags stmsan for the node-leak invariants.
func TestWaitLockedCtxRaceNeverLeaks(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	notified := 0
	cancelled := 0
	for i := 0; i < 300; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		res := make(chan bool, 1)
		go func() {
			m.Lock()
			ok := cv.WaitLockedCtx(&m, ctx)
			m.Unlock()
			res <- ok
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
		var wg sync.WaitGroup
		wg.Add(2)
		var found atomic.Bool
		go func() { defer wg.Done(); found.Store(cv.NotifyOne(nil)) }()
		go func() { defer wg.Done(); cancel() }()
		wg.Wait()
		ok := <-res
		if ok {
			notified++
		} else {
			cancelled++
		}
		// A notifier that dequeued the node must be matched by a wait
		// that consumed its post; a cancel that won must leave nothing.
		if found.Load() != ok {
			t.Fatalf("iter %d: notifier found=%v but wait returned %v", i, found.Load(), ok)
		}
		if n := cv.Len(); n != 0 {
			t.Fatalf("iter %d: queue len=%d after settle", i, n)
		}
		// Spurious-wake probe: a fresh short timed wait (reusing the
		// pooled node) must expire, not wake on a stranded permit.
		m.Lock()
		if cv.WaitLockedTimeout(&m, time.Millisecond) {
			t.Fatalf("iter %d: stranded permit woke an unrelated waiter", i)
		}
		m.Unlock()
	}
	if notified == 0 || cancelled == 0 {
		t.Logf("race coverage skewed: notified=%d cancelled=%d", notified, cancelled)
	}
}

// TestWaitCtxCPS covers the continuation-passing variant across the
// lock and transaction sync flavours: notification runs the
// continuation under a re-established context; cancellation skips it.
func TestWaitCtxCPS(t *testing.T) {
	forEachSyncFlavour(t, func(t *testing.T, e *stm.Engine, inCtx func(body func(s syncx.Sync) bool) bool) {
		cv := New(e, Options{})

		// Notified path: cont observes the re-established context.
		var contRan atomic.Bool
		res := make(chan bool, 1)
		go func() {
			res <- inCtx(func(s syncx.Sync) bool {
				return cv.WaitCtx(s, context.Background(), func(syncx.Sync) {
					contRan.Store(true)
				})
			})
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
		cv.NotifyOne(nil)
		if ok := <-res; !ok || !contRan.Load() {
			t.Fatalf("notified WaitCtx: ok=%v contRan=%v", ok, contRan.Load())
		}

		// Cancelled path: cont must not run; queue must be clean.
		contRan.Store(false)
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			res <- inCtx(func(s syncx.Sync) bool {
				return cv.WaitCtx(s, ctx, func(syncx.Sync) {
					contRan.Store(true)
				})
			})
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
		cancel()
		if ok := <-res; ok || contRan.Load() {
			t.Fatalf("cancelled WaitCtx: ok=%v contRan=%v", ok, contRan.Load())
		}
		if n := cv.Len(); n != 0 {
			t.Fatalf("queue len=%d after cancel", n)
		}
	})
}

// forEachSyncFlavour hands f a helper that establishes a sync context
// (a held lock, or a live transaction), runs the body under it, and
// returns the body's result.
func forEachSyncFlavour(t *testing.T, f func(t *testing.T, e *stm.Engine, inCtx func(body func(s syncx.Sync) bool) bool)) {
	t.Run("lock", func(t *testing.T) {
		e := stm.NewEngine(stm.Config{})
		var m syncx.Mutex
		f(t, e, func(body func(s syncx.Sync) bool) bool {
			m.Lock()
			return body(syncx.NewLockSync(&m))
		})
	})
	t.Run("txn", func(t *testing.T) {
		e := stm.NewEngine(stm.Config{})
		f(t, e, func(body func(s syncx.Sync) bool) bool {
			var ok bool
			e.MustAtomic(func(tx *stm.Tx) {
				ok = body(syncx.NewTxnSync(tx))
			})
			return ok
		})
	})
}

// TestLostWakeupWindowSurvived is the acceptance provocation: the
// injector forces the paper's lost-wakeup window — a 100%-rate delay
// between the waiter's committed enqueue (sync block over) and its park
// — while a notifier fires squarely inside that window. The condvar
// must survive every round: the semaphore memorizes the early post, the
// waiter wakes (no deadlock), and no extra wake-up is ever invented (no
// spurious wakeup surfaced to a later waiter).
func TestLostWakeupWindowSurvived(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		in := fault.New(0xD15EA5E).Set(fault.CVEnqueue,
			fault.Rule{Rate: 1.0, Action: fault.ActDelay, Delay: 2 * time.Millisecond})
		e.SetFault(in)
		cv := New(e, Options{})
		var st CVStats
		cv.SetStats(&st)
		in.Arm()
		defer in.Disarm()

		const rounds = 30
		var m syncx.Mutex
		for i := 0; i < rounds; i++ {
			done := make(chan struct{})
			go func() {
				m.Lock()
				cv.WaitLocked(&m)
				m.Unlock()
				close(done)
			}()
			// The committed enqueue (Depth) precedes the injected stall, so
			// this notify lands inside the enqueue→park window.
			waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
			if !cv.NotifyOne(nil) {
				t.Fatalf("round %d: notifier missed the enqueued waiter", i)
			}
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("round %d: lost wakeup — waiter deadlocked", i)
			}
		}
		if got := in.Fired(fault.CVEnqueue); got != rounds {
			t.Fatalf("window forced %d times, want %d", got, rounds)
		}
		// No spurious wake-up surfaced: a probe wait with no notifier must
		// time out even after all those forced windows.
		m.Lock()
		if cv.WaitLockedTimeout(&m, 5*time.Millisecond) {
			t.Fatal("spurious wakeup after forced lost-wakeup windows")
		}
		m.Unlock()
		if st.Waits.Load() != rounds || st.Sem.Posts.Load() != rounds {
			t.Fatalf("waits=%d sem_posts=%d, want %d each", st.Waits.Load(), st.Sem.Posts.Load(), rounds)
		}
	})
}

// TestNotifyWindowDelay: a CVNotify delay (committed dequeue → post)
// must never lose the wake-up either, even when the waiter's timeout
// expires inside the widened window — the timeout loses the race and
// the wait reports notified.
//
// Ordering: the waiter's deadline (200 ms) is two hundred polls of
// waitUntil away, so it cannot expire before the notifier has seen the
// waiter enqueued and committed the dequeue; the injected stall is drawn
// from [Delay/2, Delay], entirely above the deadline, so the deadline
// always expires while the post is still held back.
func TestNotifyWindowDelay(t *testing.T) {
	const timeout = 200 * time.Millisecond
	e := stm.NewEngine(stm.Config{})
	in := fault.New(0xBEEF).Set(fault.CVNotify,
		fault.Rule{Rate: 1.0, Action: fault.ActDelay, Delay: 3 * timeout})
	e.SetFault(in)
	cv := New(e, Options{})
	in.Arm()
	defer in.Disarm()

	var m syncx.Mutex
	res := make(chan bool, 1)
	go func() {
		m.Lock()
		ok := cv.WaitLockedTimeout(&m, timeout)
		m.Unlock()
		res <- ok
	}()
	waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
	// The dequeue commits now; the injected stall holds the post back
	// past the waiter's deadline.
	if !cv.NotifyOne(nil) {
		t.Fatal("notifier missed the waiter")
	}
	select {
	case ok := <-res:
		if !ok {
			t.Fatal("notification lost: dequeued waiter reported timeout")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter stuck")
	}
}
