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
	parsed, err := waketrace.Parse(buf.Bytes())
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
	parsed, err = waketrace.Parse(dump)
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
