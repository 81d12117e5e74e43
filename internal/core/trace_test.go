package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/registry"
	"repro/internal/stm"
	"repro/internal/syncx"
)

func traceCounts(tr *obs.Tracer) map[obs.EventType]int {
	m := make(map[obs.EventType]int)
	for _, ev := range tr.Events() {
		m[ev.Type]++
	}
	return m
}

// Provocation: a NotifyOne inside a transaction that ABORTS must leave no
// cv.notify/cv.sempost in the trace and wake nobody — the aborted
// attempt's events are discarded exactly like the paper defers (and
// discards) its SEMPOST. Then a committed notify produces the full
// enqueue → notify → sempost → wake chain, in the exported Chrome trace
// too, and populates the split wait-latency histograms.
func TestTraceAbortedNotifyLeavesNoEvents(t *testing.T) {
	e := stm.NewEngine(stm.Config{Algorithm: stm.AlgWriteThrough})
	tr := obs.NewTracer(4096)
	e.SetTracer(tr)
	tr.Enable()
	st := &CVStats{}
	cv := New(e, Options{})
	cv.SetStats(st)

	var m syncx.Mutex
	done := make(chan struct{})
	go func() {
		m.Lock()
		cv.WaitLocked(&m)
		m.Unlock()
		close(done)
	}()
	// A park stamp means the waiter is past its slot check and committed
	// to descheduling: it will emit the park/unpark pair.
	waitUntil(t, "park", func() bool {
		c := cv.WaitChain()
		return len(c) == 1 && c[0].ParkAgeNS >= 0
	})

	// The provocation: dequeue the waiter, then abort the transaction.
	sentinel := errors.New("provoked abort")
	err := e.Atomic(func(tx *stm.Tx) {
		if !cv.NotifyOne(tx) {
			t.Error("NotifyOne found no waiter")
		}
		tx.Cancel(sentinel)
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Atomic err = %v", err)
	}

	// The abort rolled the dequeue back: waiter still enqueued, not woken,
	// and the trace shows no notify-side events.
	if n := cv.Len(); n != 1 {
		t.Fatalf("after aborted notify: Len = %d, want 1", n)
	}
	select {
	case <-done:
		t.Fatal("waiter woke from an aborted notify")
	default:
	}
	got := traceCounts(tr)
	if got[obs.EvCVNotify] != 0 || got[obs.EvCVSemPost] != 0 || got[obs.EvCVWake] != 0 {
		t.Fatalf("aborted notify leaked events: %v", got)
	}
	// The causal wake-flow events (DESIGN.md §15) obey the same
	// discipline: the wakeID is minted in the commit handler, so an
	// aborted notify never starts a flow.
	if got[obs.EvWakeRoot] != 0 || got[obs.EvWakePost] != 0 || got[obs.EvWakeEnd] != 0 {
		t.Fatalf("aborted notify leaked wake-flow events: %v", got)
	}
	if got[obs.EvTxnAbort] == 0 {
		t.Fatal("aborted attempt left no terminal txn.abort event")
	}

	// Now commit the notify for real.
	e.MustAtomic(func(tx *stm.Tx) {
		if !cv.NotifyOne(tx) {
			t.Error("committed NotifyOne found no waiter")
		}
	})
	<-done
	tr.Disable()

	got = traceCounts(tr)
	for _, want := range []obs.EventType{obs.EvCVEnqueue, obs.EvCVNotify, obs.EvCVSemPost, obs.EvCVWake, obs.EvSemPark, obs.EvSemUnpark} {
		if got[want] != 1 {
			t.Errorf("%s count = %d, want 1 (all: %v)", want, got[want], got)
		}
	}
	// The park events sit on the node's lane, and the unpark is a span
	// covering the park.
	var lane uint64
	for _, ev := range tr.Events() {
		if ev.Type == obs.EvCVSemPost {
			lane = ev.Lane
		}
	}
	for _, ev := range tr.Events() {
		if (ev.Type == obs.EvSemPark || ev.Type == obs.EvSemUnpark) && ev.Lane != lane {
			t.Errorf("%s on lane %d, want the node's lane %d", ev.Type, ev.Lane, lane)
		}
		if ev.Type == obs.EvSemUnpark && ev.Dur <= 0 {
			t.Errorf("unpark span has no duration: %+v", ev)
		}
	}
	// The committed notify minted exactly one wake flow: one root (the
	// commit handler), one post, one consume by a live waiter — all
	// carrying the same non-zero wakeID.
	for _, want := range []obs.EventType{obs.EvWakeRoot, obs.EvWakePost, obs.EvWakeEnd} {
		if got[want] != 1 {
			t.Errorf("%s count = %d, want 1 (all: %v)", want, got[want], got)
		}
	}
	var flowID uint64
	for _, ev := range tr.Events() {
		switch ev.Type {
		case obs.EvWakeRoot, obs.EvWakePost, obs.EvWakeEnd:
			if ev.Flow == 0 {
				t.Errorf("%s carries zero flow id", ev.Type)
			}
			if flowID == 0 {
				flowID = ev.Flow
			} else if ev.Flow != flowID {
				t.Errorf("%s flow %d != first flow %d", ev.Type, ev.Flow, flowID)
			}
			if ev.Type == obs.EvWakeEnd && ev.B != obs.WakeByWaiter {
				t.Errorf("consume by %s, want waiter", obs.WakeConsumerName(ev.B))
			}
		}
	}
	if n := cv.Len(); n != 0 {
		t.Errorf("final Len = %d, want 0", n)
	}

	// The exported Chrome trace reflects the same discipline: exactly one
	// committed notify chain, nothing from the aborted attempt.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("exported trace is not valid JSON: %v", err)
	}
	names := map[string]int{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name]++
	}
	if names["cv.notify"] != 1 || names["cv.sempost"] != 1 {
		t.Errorf("exported trace notify chain = %v", names)
	}

	// The split wait-latency histograms populated: enqueue→notify on the
	// notifier's commit, notify→wake on the waiter's resume.
	h := st.Histograms()
	if h["enqueue_to_notify_ns"].Count != 1 {
		t.Errorf("enqueue_to_notify_ns count = %d, want 1", h["enqueue_to_notify_ns"].Count)
	}
	if h["notify_to_wake_ns"].Count != 1 {
		t.Errorf("notify_to_wake_ns count = %d, want 1", h["notify_to_wake_ns"].Count)
	}
	if h["sem_park_ns"].Count != 1 {
		t.Errorf("sem_park_ns count = %d, want 1 (waiter parked once)", h["sem_park_ns"].Count)
	}
	// Every counter here is committed-side, so the aborted NotifyOne
	// counts for nothing.
	snap := st.Snapshot()
	if snap["waits"] != 1 || snap["sem_posts"] != 1 || snap["notify_ones"] != 1 {
		t.Errorf("snapshot = %v", snap)
	}
	if snap["wake_consumed_waiter"] != 1 || snap["wake_consumed_timeout"] != 0 || snap["wake_consumed_cancel"] != 0 {
		t.Errorf("wake consumer attribution = %v", snap)
	}
}

// The cv_queue_depth registry row walks the queue at scrape time, so it
// equals the parked-waiter count after an aborted enqueue, an aborted
// notify, a timeout unlink and a partial NotifyN.
func TestDepthGauge(t *testing.T) {
	e := stm.NewEngine(stm.Config{Algorithm: stm.AlgWriteThrough})
	cv := New(e, Options{})
	r := registry.New()
	cv.RegisterIntrospect(r, "depth")
	row := func() int64 {
		v, ok := r.Vars()[`cv_queue_depth{cv="depth"}`].(int64)
		if !ok {
			t.Fatal("cv_queue_depth row missing")
		}
		return v
	}
	check := func(what string, want int) {
		t.Helper()
		if got := row(); got != int64(want) || len(cv.WaitChain()) != want {
			t.Fatalf("%s: cv_queue_depth = %d, wait chain %d, want %d", what, got, len(cv.WaitChain()), want)
		}
	}
	check("idle", 0)

	// Aborted enqueue: the insert rolls back with its transaction.
	n := cv.acquireNode()
	if err := e.Atomic(func(tx *stm.Tx) {
		cv.enqueue(tx, n)
		tx.Cancel(errAbortProvoked)
	}); err == nil {
		t.Fatal("doomed enqueue committed")
	}
	check("aborted enqueue", 0)

	var m syncx.Mutex
	gen := 0
	done := parkWaiters(t, cv, &m, &gen, 3)
	check("three parked", 3)

	// Aborted notify: the dequeue rolls back, nobody is posted.
	if err := e.Atomic(func(tx *stm.Tx) {
		// cvlint:ignore nakednotify the notify is doomed: its rollback is the subject
		cv.NotifyOne(tx)
		tx.Cancel(errAbortProvoked)
	}); err == nil {
		t.Fatal("doomed notify committed")
	}
	check("aborted notify", 3)

	// Timeout unlink: a fourth waiter gives up and removes itself.
	m.Lock()
	if cv.WaitLockedTimeout(&m, 20*time.Millisecond) {
		t.Fatal("timed wait reported notified with no notifier")
	}
	m.Unlock()
	check("timeout unlink", 3)

	// Partial NotifyN: two of the three leave, one stays parked.
	m.Lock()
	gen++
	m.Unlock()
	if k := cv.NotifyN(nil, 2); k != 2 {
		t.Fatalf("NotifyN(2) = %d", k)
	}
	collectAll(t, done[:2], "paced")
	check("partial NotifyN", 1)

	cv.NotifyAll(nil)
	collectAll(t, done[2:], "drain")
	check("drained", 0)
}

// CVStats.Snapshot and Histograms must expose every documented key, so the
// harness JSON schema is stable.
func TestCVStatsKeys(t *testing.T) {
	st := &CVStats{}
	snap := st.Snapshot()
	for _, k := range []string{"waits", "notify_ones", "notify_alls", "timeouts", "sem_posts", "sem_blocks"} {
		if _, ok := snap[k]; !ok {
			t.Errorf("Snapshot missing %q (have %s)", k, strings.Join(keysOf(snap), ","))
		}
	}
	h := st.Histograms()
	for _, k := range []string{"enqueue_to_notify_ns", "notify_to_wake_ns", "sem_park_ns"} {
		if _, ok := h[k]; !ok {
			t.Errorf("Histograms missing %q", k)
		}
	}
}

func keysOf(m map[string]int64) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
