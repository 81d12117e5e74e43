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
	"cancels", "notify_alls", "notify_empty", "notify_ones",
	"sem_blocks", "sem_posts", "sem_spin_waits", "timeouts", "waits",
	"wake_consumed_cancel", "wake_consumed_timeout", "wake_consumed_waiter",
	"woken",
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
	// appear, plus the three sem.Stats aggregates the snapshot carries
	// (posts, blocks, spin waits).
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
	if want := direct + 3; len(snap) != want {
		t.Errorf("Snapshot has %d keys, want %d (%d direct fields + 3 sem aggregates) — a field is missing from the introspect.go table", len(snap), want, direct)
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
	obs.SetParkLabels(true)
	defer obs.SetParkLabels(false)

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
		if w.PprofLabel == "" {
			t.Errorf("park labels on but waiter carries no pprof label: %+v", w)
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
