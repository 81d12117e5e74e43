package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stm"
	"repro/internal/syncx"
)

func TestWaitLockedTimeoutExpires(t *testing.T) {
	forEachEngine(t, func(t *testing.T, e *stm.Engine) {
		cv := New(e, Options{})
		var st CVStats
		cv.SetStats(&st)
		var m syncx.Mutex
		m.Lock()
		start := time.Now()
		if cv.WaitLockedTimeout(&m, 30*time.Millisecond) {
			t.Fatal("timed wait reported notification with no notifier")
		}
		if time.Since(start) < 25*time.Millisecond {
			t.Fatal("returned before the deadline")
		}
		if !m.Locked() {
			t.Fatal("mutex not re-acquired after timeout")
		}
		m.Unlock()
		// The node must have been unlinked: the queue is empty and a
		// later notify finds nobody.
		if cv.Len() != 0 {
			t.Fatalf("queue length = %d after timeout, want 0", cv.Len())
		}
		if cv.NotifyOne(nil) {
			t.Fatal("notify found a ghost waiter")
		}
		if st.Timeouts.Load() != 1 {
			t.Fatalf("Timeouts = %d, want 1", st.Timeouts.Load())
		}
	})
}

// A non-positive timeout gives up at once: the waiter enqueues, finds
// its slot empty and unlinks itself, without descheduling — the timer is
// armed only on the way into the park, so none is armed either.
func TestWaitLockedTimeoutNonPositive(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    time.Duration
	}{{"d=0", 0}, {"d<0", -time.Second}} {
		t.Run(tc.name, func(t *testing.T) {
			cv := New(stm.NewEngine(stm.Config{}), Options{})
			var st CVStats
			cv.SetStats(&st)
			var m syncx.Mutex
			m.Lock()
			// cvlint:ignore waitloop probes the give-up path one-shot by design
			if cv.WaitLockedTimeout(&m, tc.d) {
				t.Fatal("timed wait reported notification with no notifier")
			}
			m.Unlock()
			if n := cv.Len(); n != 0 {
				t.Fatalf("queue length = %d after giving up, want 0", n)
			}
			if got := st.Timeouts.Load(); got != 1 {
				t.Fatalf("Timeouts = %d, want 1", got)
			}
			if b, p := st.Sem.Blocks.Load(), st.Sem.ParkNanos.Count(); b != 0 || p != 0 {
				t.Fatalf("gave up after parking: Blocks = %d, parks observed = %d", b, p)
			}
		})
	}
}

func TestWaitLockedTimeoutNotifiedInTime(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	res := make(chan bool, 1)
	go func() {
		m.Lock()
		ok := cv.WaitLockedTimeout(&m, 10*time.Second)
		m.Unlock()
		res <- ok
	}()
	waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
	cv.NotifyOne(nil)
	select {
	case ok := <-res:
		if !ok {
			t.Fatal("notified wait reported timeout")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter stuck")
	}
}

func TestWaitLockedTimeoutRaceNeverLosesNotify(t *testing.T) {
	// Hammer the timeout/notify race: every NotifyOne that reports true
	// must be matched by a wait returning true.
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	for i := 0; i < 300; i++ {
		res := make(chan bool, 1)
		go func() {
			m.Lock()
			res <- cv.WaitLockedTimeout(&m, time.Duration(i%3)*time.Millisecond)
		}()
		time.Sleep(time.Duration(i%4) * 500 * time.Microsecond)
		notified := cv.NotifyOne(nil)
		got := <-res
		m.Unlock()
		if notified && !got {
			t.Fatalf("iter %d: notify claimed a waiter but the wait timed out — lost wake-up", i)
		}
		if !notified && got {
			t.Fatalf("iter %d: wait reports notification but nobody notified — spurious", i)
		}
		if cv.Len() != 0 {
			t.Fatalf("iter %d: queue not empty (%d)", i, cv.Len())
		}
	}
}

func TestWaitLockedTimeoutWithDeferredNotify(t *testing.T) {
	// The notifier dequeues the waiter inside a transaction whose commit
	// (and hence the post) is delayed; the timeout fires in between. The
	// wait must report true (it was notified, just slowly) and must not
	// return before the post actually lands.
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	res := make(chan bool, 1)
	go func() {
		m.Lock()
		ok := cv.WaitLockedTimeout(&m, 20*time.Millisecond)
		m.Unlock()
		res <- ok
	}()
	waitUntil(t, "enqueue", func() bool { return cv.Len() == 1 })
	e.MustAtomic(func(tx *stm.Tx) {
		cv.NotifyOne(tx) // dequeues now; post deferred to commit
		if tx.Attempt() == 0 && !tx.Serial() {
			time.Sleep(60 * time.Millisecond) // let the timeout expire mid-txn
		}
	})
	select {
	case ok := <-res:
		if !ok {
			t.Fatal("deferred notify lost to the timeout")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("waiter stuck")
	}
}

func TestWaitLockedTimeoutMixedQueue(t *testing.T) {
	// Timed and untimed waiters share a queue; a timeout in the middle
	// must not corrupt the links around it.
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	var m syncx.Mutex
	var wg sync.WaitGroup
	var notifiedCount atomic.Int64
	// Waiter A (untimed), waiter B (times out), waiter C (untimed).
	for i, d := range []time.Duration{0, 25 * time.Millisecond, 0} {
		i := i
		d := d
		wg.Add(1)
		go func() {
			defer wg.Done()
			m.Lock()
			if d == 0 {
				cv.WaitLocked(&m)
				notifiedCount.Add(1)
			} else {
				if cv.WaitLockedTimeout(&m, d) {
					notifiedCount.Add(1)
				}
			}
			m.Unlock()
		}()
		waitUntil(t, "enqueue", func() bool { return cv.Len() == i+1 })
	}
	// Let B time out, then release A and C.
	time.Sleep(60 * time.Millisecond)
	if got := cv.Len(); got != 2 {
		t.Fatalf("queue length after middle timeout = %d, want 2", got)
	}
	cv.NotifyOne(nil)
	cv.NotifyOne(nil)
	wg.Wait()
	if got := notifiedCount.Load(); got != 2 {
		t.Fatalf("notified = %d, want 2", got)
	}
}
