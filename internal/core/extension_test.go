package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/stm"
	"repro/internal/syncx"
)

// TestWaitAtCommitBasic exercises the Section 4.3 alternative: WAIT
// schedules its SEMWAIT as an onCommit handler and returns; the caller's
// transaction commits lexically and the goroutine then sleeps.
func TestWaitAtCommitBasic(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		cv := New(e, Options{})
		flag := stm.NewVar(e, false)
		done := make(chan struct{})
		go func() {
			for {
				ok := false
				e.MustAtomic(func(tx *stm.Tx) {
					ok = false
					if stm.Read(tx, flag) {
						ok = true
						return
					}
					cv.WaitAtCommit(tx)
				})
				if ok {
					close(done)
					return
				}
			}
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
		select {
		case <-done:
			t.Fatal("WaitAtCommit returned without a notify")
		case <-time.After(30 * time.Millisecond):
		}
		e.MustAtomic(func(tx *stm.Tx) {
			stm.Write(tx, flag, true)
			cv.NotifyOne(tx)
		})
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("WaitAtCommit waiter never finished")
		}
	})
}

// TestWaitAtCommitAbortedTxnDoesNotSleep: if the enclosing transaction is
// cancelled, the scheduled SEMWAIT must be discarded along with the
// enqueue.
func TestWaitAtCommitAbortedTxnDoesNotSleep(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	errStop := errTest("stop")
	returned := make(chan struct{})
	go func() {
		_ = e.Atomic(func(tx *stm.Tx) {
			cv.WaitAtCommit(tx)
			tx.Cancel(errStop)
		})
		close(returned)
	}()
	select {
	case <-returned: // must NOT be parked: the handler was discarded
	case <-time.After(10 * time.Second):
		t.Fatal("goroutine parked despite cancelled transaction")
	}
	if cv.Len() != 0 {
		t.Fatal("cancelled transaction left a node enqueued")
	}
}

// TestTxnSyncExecRecreatesNestingDepth checks the Section 4.3 nesting
// obligation: the continuation observes the same flat-nesting depth as
// the punctuated context.
func TestTxnSyncExecRecreatesNestingDepth(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	depthSeen := make(chan int, 1)
	go func() {
		e.MustAtomic(func(tx *stm.Tx) {
			tx.Atomic(func(tx *stm.Tx) {
				tx.Atomic(func(tx *stm.Tx) {
					// depth 2 here
					s := syncx.NewTxnSync(tx)
					cv.Wait(s, func(inner syncx.Sync) {
						depthSeen <- inner.Tx().Depth()
					})
				})
			})
		})
	}()
	waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
	cv.NotifyOne(nil)
	select {
	case d := <-depthSeen:
		if d != 2 {
			t.Fatalf("continuation depth = %d, want 2", d)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("continuation never ran")
	}
}

// TestCondVarOnTinyHTM runs the condvar on a hardware engine whose
// capacity is too small for some operations: the queue transactions must
// transparently fall back to serial execution and stay correct.
func TestCondVarOnTinyHTM(t *testing.T) {
	e := stm.NewEngine(stm.Config{Algorithm: stm.AlgHTM, HTMCapacity: 2, MaxRetries: 2})
	cv := New(e, Options{})
	var m syncx.Mutex
	const waiters = 8
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
		}()
	}
	waitUntil(t, "all parked", func() bool { return cv.Len() == waiters })
	// NotifyAll walks the whole queue: guaranteed to blow a capacity of 2.
	if got := cv.NotifyAll(nil); got != waiters {
		t.Fatalf("NotifyAll = %d, want %d", got, waiters)
	}
	wg.Wait()
	if e.Stats.CapacityAborts.Load() == 0 {
		t.Fatal("expected capacity aborts on the tiny HTM")
	}
	if e.Stats.SerialCommits.Load() == 0 {
		t.Fatal("expected serial fallbacks on the tiny HTM")
	}
}

// TestStatsSnapshot sanity-checks the engine stats surface the harness
// and tools rely on.
func TestStatsSnapshot(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	v := stm.NewVar(e, 0)
	e.MustAtomic(func(tx *stm.Tx) { stm.Write(tx, v, 1) })
	snap := e.Stats.Snapshot()
	if snap["commits"] != 1 || snap["aborts"] != 0 {
		t.Fatalf("snapshot = %v", snap)
	}
}

// TestHistoryCheckerUnderStress drives a mixed workload through the
// checker: every wake must pair with a notify, and the books must balance
// at quiescence.
func TestHistoryCheckerUnderStress(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		cv := New(e, Options{})
		h := NewHistoryChecker(false)
		var m syncx.Mutex
		const waiters = 12
		var wg sync.WaitGroup
		var fail atomic.Value
		for i := 0; i < waiters; i++ {
			i := i
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Lock()
				h.RecordWaitStart(i)
				cv.WaitLocked(&m)
				m.Unlock()
				if err := h.RecordWaitDone(i); err != nil {
					fail.Store(err)
				}
			}()
		}
		waitUntil(t, "all parked", func() bool { return cv.Len() == waiters })
		// Mixed notifies until everyone is released. Each notify is
		// recorded while still holding the monitor mutex: a woken
		// waiter must re-acquire m before it can record its wake, so
		// the checker always observes notify before wake. Recording
		// after unlocking races the waiter on a multicore runtime and
		// trips the fail-fast spurious-wake check falsely.
		released := 0
		for released < waiters {
			m.Lock()
			if cv.NotifyOne(nil) {
				if err := h.RecordNotify(1); err != nil {
					t.Fatal(err)
				}
				released++
			}
			if released < waiters && released%3 == 0 {
				n := cv.NotifyAll(nil)
				if err := h.RecordNotify(n); err != nil {
					t.Fatal(err)
				}
				released += n
			}
			m.Unlock()
		}
		wg.Wait()
		if err, _ := fail.Load().(error); err != nil {
			t.Fatal(err)
		}
		if err := h.CheckQuiescent(); err != nil {
			t.Fatal(err)
		}
		s, c, n := h.Counts()
		if s != waiters || c != waiters || n != waiters {
			t.Fatalf("counts = %d/%d/%d, want %d each", s, c, n, waiters)
		}
	})
}

// TestHistoryCheckerDetectsViolations sanity-checks the checker itself.
func TestHistoryCheckerDetectsViolations(t *testing.T) {
	h := NewHistoryChecker(true)
	h.RecordWaitStart(0)
	if err := h.RecordWaitDone(0); err == nil {
		t.Fatal("unmatched wake not detected")
	}
	h2 := NewHistoryChecker(true)
	if err := h2.RecordNotify(1); err == nil {
		t.Fatal("notify exceeding enqueues not detected")
	}
	h3 := NewHistoryChecker(false)
	h3.RecordWaitStart(0)
	if err := h3.RecordNotify(1); err != nil {
		t.Fatal(err)
	}
	if err := h3.CheckQuiescent(); err == nil {
		t.Fatal("lost wake-up not detected at quiescence")
	}
}

// TestNotifyBestFromTransactionDefersWake: NotifyBest inside a txn defers
// the post like NotifyOne, and is discarded on cancel.
func TestNotifyBestFromTransactionDefersWake(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	var woken atomic.Bool
	go func() {
		m.Lock()
		s := syncx.NewLockSync(&m)
		cv.WaitTagged(s, 7, nil)
		woken.Store(true)
	}()
	waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
	score := func(tag any) int64 {
		if v, ok := tag.(int); ok {
			return int64(v)
		}
		return -1
	}
	// Cancelled transaction: no wake, node back in queue.
	errStop := errTest("stop")
	_ = e.Atomic(func(tx *stm.Tx) {
		cv.NotifyBest(tx, score)
		tx.Cancel(errStop)
	})
	time.Sleep(20 * time.Millisecond)
	if woken.Load() {
		t.Fatal("cancelled NotifyBest woke the waiter")
	}
	if cv.Len() != 1 {
		t.Fatal("cancelled NotifyBest lost the node")
	}
	// Committed transaction: wake fires at commit.
	e.MustAtomic(func(tx *stm.Tx) {
		if !cv.NotifyBest(tx, score) {
			t.Error("NotifyBest found nobody")
		}
	})
	waitUntil(t, "wake", func() bool { return woken.Load() })
}

// TestNotifyBestMiddleUnlink: removing a middle node must keep the list
// and tail consistent for subsequent operations.
func TestNotifyBestMiddleUnlink(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	order := make(chan int, 3)
	tags := []int{1, 9, 2} // middle node has the best tag
	for i := 0; i < 3; i++ {
		i := i
		go func() {
			m.Lock()
			s := syncx.NewLockSync(&m)
			cv.WaitTagged(s, tags[i], nil)
			order <- i
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == i+1 })
	}
	score := func(tag any) int64 { return int64(tag.(int)) }
	if !cv.NotifyBest(nil, score) {
		t.Fatal("NotifyBest failed")
	}
	if got := <-order; got != 1 {
		t.Fatalf("best woke %d, want 1 (middle)", got)
	}
	// The remaining queue must still work FIFO, including the tail.
	cv.NotifyOne(nil)
	if got := <-order; got != 0 {
		t.Fatalf("next wake %d, want 0", got)
	}
	go func() { // a fresh waiter exercises the repaired tail pointer
		m.Lock()
		cv.WaitLocked(&m)
		m.Unlock()
		order <- 3
	}()
	waitUntil(t, "tail reuse", func() bool { return cv.Len() == 2 })
	cv.NotifyAll(nil)
	a, b := <-order, <-order
	if !(a == 2 && b == 3 || a == 3 && b == 2) {
		t.Fatalf("final wakes = %d,%d", a, b)
	}
}

// TestQuickWaitNotifyBalance is a property test: for any interleaving
// pattern of k notifies over n parked waiters (k <= n), exactly k waiters
// wake.
func TestQuickWaitNotifyBalance(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	f := func(nRaw, kRaw uint8) bool {
		n := int(nRaw%6) + 1
		k := int(kRaw) % (n + 1)
		cv := New(e, Options{})
		var m syncx.Mutex
		var woken atomic.Int64
		var wg sync.WaitGroup
		for i := 0; i < n; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				m.Lock()
				cv.WaitLocked(&m)
				m.Unlock()
				woken.Add(1)
			}()
		}
		deadline := time.Now().Add(10 * time.Second)
		for cv.Len() != n {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(50 * time.Microsecond)
		}
		for i := 0; i < k; i++ {
			if !cv.NotifyOne(nil) {
				return false
			}
		}
		for woken.Load() < int64(k) {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(50 * time.Microsecond)
		}
		time.Sleep(2 * time.Millisecond) // allow any bogus extra wake
		ok := woken.Load() == int64(k) && cv.Len() == n-k
		cv.NotifyAll(nil)
		wg.Wait()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
