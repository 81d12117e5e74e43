package waketrace_test

import (
	"bytes"
	"encoding/json"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stm"
	"repro/internal/syncx"
	"repro/internal/waketrace"
)

// broadcast runs a real 128-waiter broadcast under a tracer and returns
// the quiesced tracer — the acceptance scenario of the wake-tracing
// work: every wake DAG reconstructs with no orphan hops.
func broadcast(t *testing.T, waiters int) *obs.Tracer {
	t.Helper()
	e := stm.NewEngine(stm.Config{})
	tr := obs.NewTracer(1 << 16)
	e.SetTracer(tr)
	tr.Enable()
	cv := core.New(e, core.Options{WakeFanout: 8}).SetName("bench.cv")

	var m syncx.Mutex
	done := make(chan struct{}, waiters)
	for i := 0; i < waiters; i++ {
		go func() {
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
			done <- struct{}{}
		}()
	}
	deadline := time.Now().Add(10 * time.Second)
	for cv.Depth() != int64(waiters) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters enqueued", cv.Depth(), waiters)
		}
		time.Sleep(time.Millisecond)
	}
	if n := cv.NotifyAll(nil); n != waiters {
		t.Fatalf("NotifyAll woke %d, want %d", n, waiters)
	}
	for i := 0; i < waiters; i++ {
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("waiter %d never woke", i)
		}
	}
	tr.Disable()
	return tr
}

func checkDAGs(t *testing.T, dags []*waketrace.DAG, waiters int, via string) {
	t.Helper()
	if problems := waketrace.Check(dags); len(problems) != 0 {
		t.Fatalf("%s: structural check failed: %v", via, problems)
	}
	if len(dags) != 1 {
		t.Fatalf("%s: reconstructed %d flows, want 1", via, len(dags))
	}
	d := dags[0]
	if d.Batch != int64(waiters) {
		t.Errorf("%s: root batch %d, want %d", via, d.Batch, waiters)
	}
	if len(d.Hops) != waiters {
		t.Errorf("%s: %d hops, want %d", via, len(d.Hops), waiters)
	}
	if len(d.Orphans) != 0 {
		t.Errorf("%s: %d orphan hops, want 0", via, len(d.Orphans))
	}
	total, by := d.Consumed()
	if total != waiters || by["waiter"] != waiters {
		t.Errorf("%s: consumed %d (%v), want %d all by waiter", via, total, by, waiters)
	}
	// 128 waiters at fan-out 8 = 8 chains of 16: max depth 16 when the
	// runtime is parallel, or 1 when GOMAXPROCS is 1 (auto direct post is
	// overridden here by the explicit fanout, so depth is exact).
	if want := int64(waiters / 8); d.MaxDepth() != want {
		t.Errorf("%s: max depth %d, want %d (8 chains over %d waiters)", via, d.MaxDepth(), want, waiters)
	}
	if len(d.Roots) != 8 {
		t.Errorf("%s: %d notifier-posted heads, want 8", via, len(d.Roots))
	}
	if d.CV != "bench.cv" {
		t.Errorf("%s: cv name %q, want bench.cv", via, d.CV)
	}
}

// TestBroadcastDAGRoundTrip reconstructs a 128-waiter broadcast's wake
// DAG three ways — straight from the live tracer, through the Chrome
// trace exporter, and through a flight-dump shaped document — and
// demands the identical, orphan-free shape from each.
func TestBroadcastDAGRoundTrip(t *testing.T) {
	const waiters = 128
	tr := broadcast(t, waiters)
	evs := tr.Events()

	// 1. Live path (what parsecbench/cvstress use in-run).
	live := waketrace.Build(waketrace.FromObs(evs))
	checkDAGs(t, live, waiters, "FromObs")

	// 2. Chrome export → parse (what cvtrace sees after -trace).
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, _, err := waketrace.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	chrome := waketrace.Build(parsed)
	checkDAGs(t, chrome, waiters, "chrome")

	// 3. Flight-dump shape (what cvtrace sees pointed at cvflight-*.json).
	// Chrome loses the cv name only if unnamed; the flight path carries
	// raw A/B, so the name resolves through the id — not available
	// offline — hence the dump parser keeps CV empty and the check below
	// relaxes it.
	type flightEv struct {
		TS   int64  `json:"ts_ns"`
		Type string `json:"type"`
		Lane uint64 `json:"lane"`
		A    int64  `json:"a,omitempty"`
		B    int64  `json:"b,omitempty"`
		Flow uint64 `json:"flow,omitempty"`
	}
	var fevs []flightEv
	for _, ev := range evs {
		fevs = append(fevs, flightEv{TS: ev.TS, Type: ev.Type.String(), Lane: ev.Lane, A: ev.A, B: ev.B, Flow: ev.Flow})
	}
	dump, err := json.Marshal(map[string]any{"reason": "test", "trace_events": fevs})
	if err != nil {
		t.Fatal(err)
	}
	parsed, _, err = waketrace.Parse(dump)
	if err != nil {
		t.Fatal(err)
	}
	flight := waketrace.Build(parsed)
	if len(flight) == 1 {
		flight[0].CV = "bench.cv" // names don't travel through raw dumps; see above
	}
	checkDAGs(t, flight, waiters, "flight")

	// The analysis over the reconstructed DAG is internally consistent.
	rep := waketrace.Analyze(live, waketrace.Options{TopHops: 5})
	if rep.Flows != 1 || rep.Consumed != waiters || rep.Orphans != 0 {
		t.Errorf("report: %d flows, %d consumed, %d orphans", rep.Flows, rep.Consumed, rep.Orphans)
	}
	if got := rep.PerFlow[0]; got.SpanNS <= 0 || len(got.CriticalPath) == 0 {
		t.Errorf("critical path missing: span %d, %d steps", got.SpanNS, len(got.CriticalPath))
	}
	if len(rep.Slowest) != 5 {
		t.Errorf("slowest-hop table has %d entries, want 5", len(rep.Slowest))
	}
	depthSum := 0
	for _, c := range rep.DepthDist {
		depthSum += c
	}
	if depthSum != waiters {
		t.Errorf("depth distribution covers %d wakes, want %d", depthSum, waiters)
	}
	var text bytes.Buffer
	if err := rep.WriteText(&text); err != nil {
		t.Fatal(err)
	}
	if text.Len() == 0 {
		t.Error("text report is empty")
	}
	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(js.Bytes()) {
		t.Error("JSON report is not valid JSON")
	}
}

// TestCheckCatchesCorruption: hand-built violations must each trip the
// structural validator.
func TestCheckCatchesCorruption(t *testing.T) {
	mk := func(evs ...waketrace.Event) []*waketrace.DAG {
		return waketrace.Build(evs)
	}
	root := waketrace.Event{TS: 0, Kind: waketrace.KindRoot, Lane: 1, Flow: 7, A: 2}

	cases := []struct {
		name string
		dags []*waketrace.DAG
	}{
		{"orphan hop", mk(root,
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 99, B: 1},
		)},
		{"missing root", mk(
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 0, B: 0},
		)},
		{"bad child index", mk(root,
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 0, B: 0},
			waketrace.Event{TS: 2, Kind: waketrace.KindHop, Lane: 11, Flow: 7, A: 10, B: 5},
		)},
		{"nonzero root hop index", mk(root,
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 0, B: 3},
		)},
		{"consumes exceed batch", mk(
			waketrace.Event{TS: 0, Kind: waketrace.KindRoot, Lane: 1, Flow: 7, A: 1},
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 0, B: 0},
			waketrace.Event{TS: 2, Kind: waketrace.KindHop, Lane: 11, Flow: 7, A: 10, B: 1},
			waketrace.Event{TS: 3, Kind: waketrace.KindConsume, Lane: 10, Flow: 7, A: 0},
			waketrace.Event{TS: 4, Kind: waketrace.KindConsume, Lane: 11, Flow: 7, A: 1},
		)},
		{"txn without consumed hop", mk(root,
			waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 7, A: 0, B: 0},
			waketrace.Event{TS: 2, Kind: waketrace.KindConsume, Lane: 10, Flow: 7, A: 0},
			waketrace.Event{TS: 3, Kind: waketrace.KindTxn, Lane: 500, Flow: 7, A: 9},
		)},
	}
	for _, tc := range cases {
		if problems := waketrace.Check(tc.dags); len(problems) == 0 {
			t.Errorf("%s: validator saw nothing wrong", tc.name)
		}
	}

	// And a clean single-notify flow passes.
	clean := mk(
		waketrace.Event{TS: 0, Kind: waketrace.KindRoot, Lane: 1, Flow: 9, A: 1},
		waketrace.Event{TS: 1, Kind: waketrace.KindHop, Lane: 10, Flow: 9, A: 0, B: 0},
		waketrace.Event{TS: 2, Kind: waketrace.KindConsume, Lane: 10, Flow: 9, A: 0},
		waketrace.Event{TS: 3, Kind: waketrace.KindTxn, Lane: 500, Flow: 9, A: 0},
	)
	if problems := waketrace.Check(clean); len(problems) != 0 {
		t.Errorf("clean flow flagged: %v", problems)
	}
}

// chainedFlow emits one two-hop wake flow straight into tr: the root on
// the condvar's lane (shard 1), then node head posted by the notifier
// and node head+16 (the same shard) posted by head, each consumed.
func chainedFlow(tr *obs.Tracer, flow, head uint64) {
	tr.EmitFlow(1, obs.EvWakeRoot, flow, 2, 1)
	tr.EmitFlow(head, obs.EvWakeHop, flow, 0, 0)
	tr.EmitFlow(head, obs.EvWakeEnd, flow, 0, obs.WakeByWaiter)
	tr.EmitFlow(head+16, obs.EvWakeHop, flow, int64(head), 1)
	tr.EmitFlow(head+16, obs.EvWakeEnd, flow, 1, obs.WakeByWaiter)
}

// TestSplitTruncatedShardedEviction: the tracer is sixteen rings sharded
// by lane, so a busy lane can evict a flow's early hops while the flow's
// root survives in a quiet shard. Such a flow is window-truncated (its
// root is not newer than the retention horizon), not a violation — the
// false "names parent M, which posted no hop" of the chaos-soak gate.
func TestSplitTruncatedShardedEviction(t *testing.T) {
	tr := obs.NewTracer(1024) // 16 shards × 64 slots
	tr.Enable()
	chainedFlow(tr, 7, 18)
	// Shard 2 now holds four events. 62 more on a lane of the same shard
	// wrap it by two: node 18's hop and consume go, node 34's stay.
	for i := 0; i < 62; i++ {
		tr.Emit(2, obs.EvSemPark, 0, 0)
	}
	// A second flow, begun after the last eviction, is whole.
	chainedFlow(tr, 8, 19)
	tr.Disable()

	h := tr.Horizon()
	if h == 0 {
		t.Fatal("Horizon = 0 after a shard wrapped")
	}
	dags := waketrace.Build(waketrace.FromObs(tr.Events()))
	if len(dags) != 2 || !dags[0].HasRoot || len(dags[0].Orphans) != 1 {
		t.Fatalf("setup: want flow 7 rooted with one orphan hop, got %d flow(s): %+v", len(dags), dags[0])
	}
	if len(waketrace.Check(dags)) == 0 {
		t.Fatal("strict check over the unsplit set saw nothing wrong")
	}
	complete, truncated := waketrace.SplitTruncated(dags, h)
	if len(truncated) != 1 || truncated[0].Flow != 7 {
		t.Fatalf("truncated = %v, want flow 7 only", truncated)
	}
	if len(complete) != 1 || complete[0].Flow != 8 {
		t.Fatalf("complete = %v, want flow 8 only", complete)
	}
	if problems := waketrace.Check(complete); len(problems) != 0 {
		t.Fatalf("complete set flagged: %v", problems)
	}

	// The horizon travels with the dump, so cvtrace -check agrees offline.
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	evs, dumped, err := waketrace.Parse(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if dumped != h {
		t.Fatalf("dumped horizon = %d, want %d", dumped, h)
	}
	complete, truncated = waketrace.SplitTruncated(waketrace.Build(evs), dumped)
	if len(complete) != 1 || len(truncated) != 1 || len(waketrace.Check(complete)) != 0 {
		t.Fatalf("offline: %d complete, %d truncated, problems %v",
			len(complete), len(truncated), waketrace.Check(complete))
	}
}

// The negative case: the same flow with nothing evicted and its parent
// node's events deleted by hand is inside the window, so the missing
// parent is still reported.
func TestSplitTruncatedKeepsRealOrphans(t *testing.T) {
	tr := obs.NewTracer(1024)
	tr.Enable()
	chainedFlow(tr, 7, 18)
	tr.Disable()
	if h := tr.Horizon(); h != 0 {
		t.Fatalf("Horizon = %d with nothing evicted, want 0", h)
	}
	var evs []waketrace.Event
	for _, ev := range waketrace.FromObs(tr.Events()) {
		if ev.Lane == 18 {
			continue
		}
		evs = append(evs, ev)
	}
	complete, truncated := waketrace.SplitTruncated(waketrace.Build(evs), tr.Horizon())
	if len(complete) != 1 || len(truncated) != 0 {
		t.Fatalf("%d complete, %d truncated, want 1 and 0", len(complete), len(truncated))
	}
	if len(waketrace.Check(complete)) == 0 {
		t.Fatal("a parent hop missing inside the retention window went unreported")
	}
}
