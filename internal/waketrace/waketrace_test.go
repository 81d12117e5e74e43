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
// work: the wake flow reconstructs whole, every post consumed.
func broadcast(t *testing.T, waiters int) *obs.Tracer {
	t.Helper()
	e := stm.NewEngine(stm.Config{})
	tr := obs.NewTracer(1 << 16)
	e.SetTracer(tr)
	tr.Enable()
	cv := core.New(e, core.Options{}).SetName("bench.cv")

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
	for cv.Len() != waiters {
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d waiters enqueued", cv.Len(), waiters)
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

func checkFlows(t *testing.T, flows []*waketrace.Flow, waiters int, via string) {
	t.Helper()
	if problems := waketrace.Check(flows); len(problems) != 0 {
		t.Fatalf("%s: structural check failed: %v", via, problems)
	}
	if len(flows) != 1 {
		t.Fatalf("%s: reconstructed %d flows, want 1", via, len(flows))
	}
	f := flows[0]
	if f.Batch != int64(waiters) {
		t.Errorf("%s: root batch %d, want %d", via, f.Batch, waiters)
	}
	if len(f.Wakes) != waiters {
		t.Errorf("%s: %d posted nodes, want %d", via, len(f.Wakes), waiters)
	}
	total, by := f.Consumed()
	if total != waiters || by["waiter"] != waiters {
		t.Errorf("%s: consumed %d (%v), want %d all by waiter", via, total, by, waiters)
	}
	if f.CV != "bench.cv" {
		t.Errorf("%s: cv name %q, want bench.cv", via, f.CV)
	}
}

// TestBroadcastDAGRoundTrip reconstructs a 128-waiter broadcast's wake
// flow three ways — straight from the live tracer, through the Chrome
// trace exporter, and through a flight-dump shaped document — and
// demands the identical shape from each.
func TestBroadcastDAGRoundTrip(t *testing.T) {
	const waiters = 128
	tr := broadcast(t, waiters)
	evs := tr.Events()

	// 1. Live path (what parsecbench/cvstress use in-run).
	live := waketrace.Build(waketrace.FromObs(evs))
	checkFlows(t, live, waiters, "FromObs")

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
	checkFlows(t, chrome, waiters, "chrome")

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
	checkFlows(t, flight, waiters, "flight")

	// The analysis over the reconstructed DAG is internally consistent.
	rep := waketrace.Analyze(live, waketrace.Options{})
	if rep.Flows != 1 || rep.Posts != waiters || rep.Consumed != waiters {
		t.Errorf("report: %d flows, %d posts, %d consumed", rep.Flows, rep.Posts, rep.Consumed)
	}
	if got := rep.PerFlow[0]; got.LastNode == 0 || got.SpanNS != got.LastPostNS+got.LastLatencyNS {
		t.Errorf("last wake: node %d, span %d != post %d + latency %d",
			got.LastNode, got.SpanNS, got.LastPostNS, got.LastLatencyNS)
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
	mk := func(evs ...waketrace.Event) []*waketrace.Flow {
		return waketrace.Build(evs)
	}
	ev := func(ts int64, kind string, lane uint64, a int64) waketrace.Event {
		return waketrace.Event{TS: ts, Kind: kind, Lane: lane, Flow: 7, A: a}
	}
	root := ev(0, waketrace.KindRoot, 1, 2)

	cases := []struct {
		name  string
		flows []*waketrace.Flow
	}{
		{"consume without a post", mk(root,
			ev(1, waketrace.KindConsume, 10, 0),
		)},
		{"missing root", mk(
			ev(1, waketrace.KindPost, 10, 0),
		)},
		{"node posted twice", mk(root,
			ev(1, waketrace.KindPost, 10, 0),
			ev(2, waketrace.KindPost, 10, 0),
		)},
		{"node consumed twice", mk(root,
			ev(1, waketrace.KindPost, 10, 0),
			ev(2, waketrace.KindConsume, 10, 0),
			ev(3, waketrace.KindConsume, 10, 0),
		)},
		{"posts exceed batch", mk(
			ev(0, waketrace.KindRoot, 1, 1),
			ev(1, waketrace.KindPost, 10, 0),
			ev(2, waketrace.KindPost, 11, 0),
			ev(3, waketrace.KindConsume, 10, 0),
			ev(4, waketrace.KindConsume, 11, 0),
		)},
		{"txn without a consumed node", mk(root,
			ev(1, waketrace.KindPost, 10, 0),
			ev(2, waketrace.KindConsume, 10, 0),
			ev(3, waketrace.KindTxn, 500, 9),
		)},
	}
	for _, tc := range cases {
		if problems := waketrace.Check(tc.flows); len(problems) == 0 {
			t.Errorf("%s: validator saw nothing wrong", tc.name)
		}
	}

	// And a clean flow — one wake consumed and resumed, one still in
	// flight — passes.
	clean := mk(root,
		ev(1, waketrace.KindPost, 10, 0),
		ev(2, waketrace.KindPost, 11, 0),
		ev(3, waketrace.KindConsume, 10, 0),
		ev(4, waketrace.KindTxn, 500, 10),
	)
	if problems := waketrace.Check(clean); len(problems) != 0 {
		t.Errorf("clean flow flagged: %v", problems)
	}
}

// batchFlow emits one two-waiter wake flow straight into tr: the root on
// the condvar's lane (shard 1), then nodes first and first+16 (one
// shard) posted and consumed.
func batchFlow(tr *obs.Tracer, flow, first uint64) {
	tr.EmitFlow(1, obs.EvWakeRoot, flow, 2, 1)
	for _, node := range []uint64{first, first + 16} {
		tr.EmitFlow(node, obs.EvWakePost, flow, 0, 0)
		tr.EmitFlow(node, obs.EvWakeEnd, flow, 0, obs.WakeByWaiter)
	}
}

// TestSplitTruncatedShardedEviction: the tracer is sixteen rings sharded
// by lane, so a busy lane can evict a flow's early posts while the flow's
// root survives in a quiet shard. Such a flow is window-truncated (its
// root is not newer than the retention horizon), not a violation — and
// the in-run gate (CheckTracer, what parsecbench -trace and cvstress
// -trace run) passes a wrapped ring while reporting the truncated count.
func TestSplitTruncatedShardedEviction(t *testing.T) {
	tr := obs.NewTracer(1024) // 16 shards × 64 slots
	tr.Enable()
	batchFlow(tr, 7, 18)
	// Shard 2 now holds four events. 61 more on a lane of the same shard
	// wrap it by one: node 18's post goes, its consume stays.
	for i := 0; i < 61; i++ {
		tr.Emit(2, obs.EvSemPark, 0, 0)
	}
	// A second flow, begun after the last eviction, is whole.
	batchFlow(tr, 8, 19)
	tr.Disable()

	h := tr.Horizon()
	if h == 0 {
		t.Fatal("Horizon = 0 after a shard wrapped")
	}
	flows := waketrace.Build(waketrace.FromObs(tr.Events()))
	if len(flows) != 2 || !flows[0].HasRoot || flows[0].Wakes[18].Posts != 0 {
		t.Fatalf("setup: want flow 7 rooted with node 18's post evicted, got %d flow(s): %+v", len(flows), flows[0])
	}
	if len(waketrace.Check(flows)) == 0 {
		t.Fatal("strict check over the unsplit set saw nothing wrong")
	}
	complete, truncated, problems := waketrace.CheckTracer(tr)
	if len(truncated) != 1 || truncated[0].ID != 7 {
		t.Fatalf("truncated = %v, want flow 7 only", truncated)
	}
	if len(complete) != 1 || complete[0].ID != 8 {
		t.Fatalf("complete = %v, want flow 8 only", complete)
	}
	if len(problems) != 0 {
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

// The negative case: a consume nobody posted, emitted with nothing
// evicted, is inside the window — a genuinely corrupted complete flow —
// so the in-run gate still reports it.
func TestSplitTruncatedKeepsRealOrphans(t *testing.T) {
	tr := obs.NewTracer(1024)
	tr.Enable()
	tr.EmitFlow(1, obs.EvWakeRoot, 7, 2, 1)
	tr.EmitFlow(34, obs.EvWakePost, 7, 0, 0)
	tr.EmitFlow(34, obs.EvWakeEnd, 7, 0, obs.WakeByWaiter)
	tr.EmitFlow(18, obs.EvWakeEnd, 7, 0, obs.WakeByWaiter) // orphan: no post
	tr.Disable()
	if h := tr.Horizon(); h != 0 {
		t.Fatalf("Horizon = %d with nothing evicted, want 0", h)
	}
	complete, truncated, problems := waketrace.CheckTracer(tr)
	if len(complete) != 1 || len(truncated) != 0 {
		t.Fatalf("%d complete, %d truncated, want 1 and 0", len(complete), len(truncated))
	}
	if len(problems) == 0 {
		t.Fatal("a post missing inside the retention window went unreported")
	}
}
