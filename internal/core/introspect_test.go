package core

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/registry"
	"repro/internal/stm"
	"repro/internal/syncx"
)

// cvSnapshotKeys freezes the CVStats export key set (same contract as
// the TMStats test in internal/stm).
var cvSnapshotKeys = []string{
	"cancels", "notify_alls", "notify_ones",
	"sem_blocks", "sem_posts", "timeouts", "waits",
	"wake_consumed_cancel", "wake_consumed_timeout", "wake_consumed_waiter",
}

var cvHistogramKeys = []string{
	"broadcast_ns", "enqueue_to_notify_ns", "notify_to_wake_ns",
	"sem_park_ns",
}

func TestCVStatsSnapshotStableAndComplete(t *testing.T) {
	var s CVStats
	snap := s.Snapshot()
	var got []string
	for k := range snap {
		got = append(got, k)
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, cvSnapshotKeys) {
		t.Errorf("Snapshot keys drifted:\n got  %v\n want %v", got, cvSnapshotKeys)
	}

	// Completeness: every direct scalar instrument field of CVStats must
	// appear, plus the two sem.Stats aggregates the snapshot carries
	// (posts, blocks).
	direct := 0
	typ := reflect.TypeOf(CVStats{})
	for i := 0; i < typ.NumField(); i++ {
		switch typ.Field(i).Type.String() {
		case "obs.Counter":
			direct++
		case "[3]obs.Counter": // WakeConsumed, one row per consumer code
			direct += 3
		}
	}
	if want := direct + 2; len(snap) != want {
		t.Errorf("Snapshot has %d keys, want %d (%d direct fields + 2 sem aggregates) — a field is missing from the introspect.go table", len(snap), want, direct)
	}

	hist := s.Histograms()
	var hk []string
	for k := range hist {
		hk = append(hk, k)
	}
	sort.Strings(hk)
	if !reflect.DeepEqual(hk, cvHistogramKeys) {
		t.Errorf("Histograms keys drifted:\n got  %v\n want %v", hk, cvHistogramKeys)
	}
}

func TestWaitChainAndRegisterIntrospect(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	r := registry.New()
	cv.RegisterIntrospect(r, "test-cv")

	if got := cv.WaitChain(); len(got) != 0 {
		t.Fatalf("idle condvar has wait chain %+v", got)
	}

	var m syncx.Mutex
	done := make(chan struct{})
	for i := 0; i < 2; i++ {
		go func() {
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
			done <- struct{}{}
		}()
	}

	// Wait until both waiters are enqueued AND parked (ParkAgeNS goes
	// from -1, the published-but-awake window, to >= 0).
	deadline := time.Now().Add(2 * time.Second)
	var chain []registry.Waiter
	for {
		chain = r.Waiters()
		parked := 0
		for _, w := range chain {
			if w.ParkAgeNS >= 0 {
				parked++
			}
		}
		if len(chain) == 2 && parked == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("waiters never fully parked: %+v", chain)
		}
		time.Sleep(time.Millisecond)
	}
	for _, w := range chain {
		if w.Source != "test-cv" {
			t.Errorf("waiter source %q, want test-cv", w.Source)
		}
		if w.Node == 0 {
			t.Errorf("waiter missing node id: %+v", w)
		}
		if w.EnqueueAgeNS <= 0 {
			t.Errorf("waiter missing enqueue age: %+v", w)
		}
		if w.EnqueueAgeNS < w.ParkAgeNS {
			t.Errorf("park age %d exceeds enqueue age %d", w.ParkAgeNS, w.EnqueueAgeNS)
		}
	}
	if depth := r.Vars()[`cv_queue_depth{cv="test-cv"}`]; depth != int64(2) {
		t.Errorf("registered cv_queue_depth reads %v, want 2", depth)
	}

	cv.NotifyAll(nil)
	<-done
	<-done
	if got := cv.WaitChain(); len(got) != 0 {
		t.Fatalf("wait chain not empty after notify: %+v", got)
	}
}

// A park stamp from a stepping clock — later than the scrape's own
// reading — reports park age zero, never a negative age.
func TestWaitChainParkAgeClamped(t *testing.T) {
	cv := New(stm.NewEngine(stm.Config{}), Options{})
	n := cv.acquireNode()
	cv.enqueue(nil, n)
	n.parkedNS.Store(monoNS() + int64(time.Hour)) // hostile: the park "begins" in the future
	chain := cv.WaitChain()
	if len(chain) != 1 || chain[0].ParkAgeNS != 0 {
		t.Fatalf("WaitChain = %+v, want one waiter with park age 0", chain)
	}
	if !cv.removeNode(n) {
		t.Fatal("removeNode did not find the enqueued node")
	}
}

// The head of the wait chain reports the oldest park's age while anyone
// is parked, and the chain is empty before the first park and once every
// waiter has been released. The ages are stamped only for a reader, so
// the condvar is registered the way introspect.Start's callers do.
func TestWaitChainOldestParkAge(t *testing.T) {
	cv := New(stm.NewEngine(stm.Config{}), Options{})
	cv.RegisterIntrospect(registry.New(), "oldest")
	if got := cv.WaitChain(); len(got) != 0 {
		t.Fatalf("idle condvar has wait chain %+v", got)
	}
	var m syncx.Mutex
	released := make(chan struct{})
	for i := 0; i < 3; i++ {
		go func() {
			m.Lock()
			// cvlint:ignore waitloop parks one waiter one-shot to read its park age
			cv.WaitLocked(&m)
			m.Unlock()
			released <- struct{}{}
		}()
	}
	waitUntil(t, "three parks", func() bool {
		c := cv.WaitChain()
		return len(c) == 3 && c[0].ParkAgeNS >= 0 && c[1].ParkAgeNS >= 0 && c[2].ParkAgeNS >= 0
	})
	waitUntil(t, "a positive oldest park age", func() bool {
		c := cv.WaitChain()
		return len(c) == 3 && c[0].ParkAgeNS > 0
	})

	if c := cv.WaitChain(); len(c) != 3 || c[0].ParkAgeNS <= 0 {
		t.Fatalf("oldest park age not positive: %+v", c)
	}

	for i := 0; i < 3; i++ {
		cv.NotifyOne(nil)
		<-released
	}
	if got := cv.WaitChain(); len(got) != 0 {
		t.Fatalf("wait chain not empty after every waiter was released: %+v", got)
	}
}

// With no reader attached — no stats sink, no tracer, no registry — a
// wait takes no stamps: its wait-chain row reports
// EnqueueAgeNS 0 and ParkAgeNS -1 however long it has been parked.
func TestWaitChainUnreadReportsNoAges(t *testing.T) {
	cv := New(stm.NewEngine(stm.Config{}), Options{})
	n := cv.enqueueSelf(nil, nil)
	done := make(chan struct{})
	go func() {
		cv.park(n, obs.WakeByWaiter, 0, nil)
		close(done)
	}()
	for i := 0; i < 3; i++ {
		time.Sleep(time.Millisecond)
		c := cv.WaitChain()
		if len(c) != 1 || c[0].EnqueueAgeNS != 0 || c[0].ParkAgeNS != -1 {
			t.Fatalf("unread wait chain = %+v, want one waiter with ages 0 and -1", c)
		}
	}
	cv.NotifyOne(nil)
	<-done
}

func TestCVStatsRegisterMetrics(t *testing.T) {
	var s CVStats
	r := registry.New()
	s.RegisterMetrics(r, registry.Labels{"engine": "x"})
	vars := r.Vars()
	for _, k := range cvSnapshotKeys {
		name := "cv_" + k + "_total"
		key := name + `{engine="x"}`
		switch k {
		case "wake_consumed_waiter", "wake_consumed_timeout", "wake_consumed_cancel":
			// Exported as one labeled family, by= carrying the consumer kind.
			name = "cv_wake_consumed_total"
			by := k[len("wake_consumed_"):]
			key = name + `{by="` + by + `",engine="x"}`
		}
		if _, ok := vars[key]; !ok {
			t.Errorf("registry missing %s", key)
		}
	}
	for _, k := range cvHistogramKeys {
		if _, ok := vars["cv_"+k+`{engine="x"}`]; !ok {
			t.Errorf("registry missing histogram cv_%s", k)
		}
	}
}
