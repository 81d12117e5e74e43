package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

// The Flow field survives the ring (store/load round-trip) and selects
// the flow-event rendering in the Chrome exporter: shared name
// "cv.wake", phases s (root) / t (post, txn) / f+bp:e (consume), all
// bound by the wakeID.
func TestFlowEventsRoundTripAndChromePhases(t *testing.T) {
	tr := NewTracer(1024)
	tr.Enable()
	const flow = 77
	// A two-waiter broadcast: root → posts to nodes 10 and 11 → consumes.
	tr.EmitFlow(1, EvWakeRoot, flow, 2, 1)
	tr.EmitFlow(10, EvWakePost, flow, 0, 0)
	tr.EmitFlow(11, EvWakePost, flow, 0, 0)
	tr.EmitFlow(10, EvWakeEnd, flow, 0, WakeByWaiter)
	tr.EmitFlow(11, EvWakeEnd, flow, 0, WakeByTimeout)
	tr.EmitFlow(500, EvWakeTxn, flow, 11, 0)
	tr.Disable()

	evs := tr.Events()
	if len(evs) != 6 {
		t.Fatalf("retained %d events, want 6", len(evs))
	}
	for _, ev := range evs {
		if ev.Flow != flow {
			t.Errorf("%s flow = %d, want %d", ev.Type, ev.Flow, flow)
		}
	}

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			ID   uint64         `json:"id"`
			BP   string         `json:"bp"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	phases := map[string][]string{}
	for _, ce := range doc.TraceEvents {
		if ce.ID != flow {
			t.Errorf("event %s/%v id = %d, want %d", ce.Name, ce.Args, ce.ID, flow)
		}
		if ce.Name != "cv.wake" {
			t.Errorf("flow event name %q, want the shared binding name cv.wake", ce.Name)
		}
		kind, _ := ce.Args["kind"].(string)
		phases[kind] = append(phases[kind], ce.Ph)
		if kind == "consume" && (ce.Ph != "f" || ce.BP != "e") {
			t.Errorf("consume ph/bp = %q/%q, want f/e", ce.Ph, ce.BP)
		}
	}
	want := map[string][]string{
		"root": {"s"}, "post": {"t", "t"}, "consume": {"f", "f"}, "txn": {"t"},
	}
	for kind, w := range want {
		if len(phases[kind]) != len(w) {
			t.Errorf("kind %s rendered %v, want %d flow events", kind, phases[kind], len(w))
		}
	}
}

// Untagged events are unaffected by the flow machinery: no id, classic
// instant/span phases.
func TestUntaggedEventsKeepClassicRendering(t *testing.T) {
	tr := NewTracer(1024)
	tr.Enable()
	tr.Emit(3, EvCVEnqueue, 3, 0)
	tr.Disable()
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			ID   uint64 `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 1 {
		t.Fatalf("rendered %d events, want 1", len(doc.TraceEvents))
	}
	ce := doc.TraceEvents[0]
	if ce.Ph != "i" || ce.ID != 0 || ce.Name != "cv.enqueue" {
		t.Errorf("untagged event rendered as %+v", ce)
	}
}

// NextFlow mints ids only while armed: a nil or disarmed tracer returns
// 0 ("no flow"), an armed one counts up from 1 and keeps counting
// across a disarm.
func TestNextFlowOnlyWhileArmed(t *testing.T) {
	var nilTr *Tracer
	tr := NewTracer(1024)
	if nilTr.NextFlow() != 0 || tr.NextFlow() != 0 {
		t.Fatal("disarmed tracer minted a flow id")
	}
	tr.Enable()
	a, b := tr.NextFlow(), tr.NextFlow()
	tr.Disable()
	if tr.NextFlow() != 0 {
		t.Fatal("disarmed tracer minted a flow id")
	}
	tr.Enable()
	if c := tr.NextFlow(); a != 1 || b != 2 || c != 3 {
		t.Fatalf("armed ids %d, %d, then %d; want 1, 2, 3", a, b, c)
	}
}
