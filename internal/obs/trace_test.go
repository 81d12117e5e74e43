package obs

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestTracerDisabledAndNil(t *testing.T) {
	var nilTr *Tracer
	if nilTr.Enabled() {
		t.Error("nil tracer reports enabled")
	}
	nilTr.Emit(1, EvCVEnqueue, 0, 0) // must not panic
	nilTr.EmitEvent(Event{Type: EvCVWake})
	nilTr.Reset()
	if got := nilTr.Events(); got != nil {
		t.Errorf("nil Events = %v", got)
	}
	if nilTr.Emitted() != 0 {
		t.Errorf("nil Emitted = %d", nilTr.Emitted())
	}

	tr := NewTracer(1024)
	tr.Emit(1, EvCVEnqueue, 0, 0) // disabled: dropped
	if tr.Emitted() != 0 || len(tr.Events()) != 0 {
		t.Errorf("disabled tracer recorded events: %d", tr.Emitted())
	}
}

func TestTracerEmitAndOrder(t *testing.T) {
	tr := NewTracer(1024)
	tr.Enable()
	tr.Emit(7, EvCVEnqueue, 7, 0)
	tr.Emit(7, EvCVNotify, 7, 1)
	tr.Emit(3, EvSemPark, 0, 0)
	tr.Disable()

	evs := tr.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].TS < evs[i-1].TS {
			t.Errorf("events out of order: %v before %v", evs[i-1], evs[i])
		}
	}
	if evs[0].Type != EvCVEnqueue || evs[0].Lane != 7 {
		t.Errorf("first event = %+v", evs[0])
	}
	if tr.Emitted() != 3 {
		t.Errorf("Emitted = %d, want 3", tr.Emitted())
	}

	tr.Reset()
	if len(tr.Events()) != 0 || tr.Emitted() != 0 {
		t.Errorf("after Reset: %d events, %d emitted", len(tr.Events()), tr.Emitted())
	}
}

func TestTracerWrapKeepsRecentWindow(t *testing.T) {
	tr := NewTracer(1024) // 64 slots per shard
	tr.Enable()
	const n = 1000 // all on one lane -> one shard; far exceeds its ring
	for i := 0; i < n; i++ {
		tr.Emit(5, EvCVEnqueue, int64(i), 0)
	}
	tr.Disable()
	if tr.Emitted() != n {
		t.Fatalf("Emitted = %d, want %d", tr.Emitted(), n)
	}
	evs := tr.Events()
	per := len(tr.shards[0].buf)
	if len(evs) != per {
		t.Fatalf("retained %d events, want shard capacity %d", len(evs), per)
	}
	// The retained window must be the most recent events.
	for _, ev := range evs {
		if ev.A < int64(n-per) {
			t.Errorf("retained stale event A=%d (window starts at %d)", ev.A, n-per)
		}
	}
}

func TestEventNamesAndCategories(t *testing.T) {
	all := []EventType{
		EvTxnStart, EvTxnCommit, EvTxnAbort, EvTxnEarlyCommit, EvTxnSerial,
		EvHandlerRun, EvCVEnqueue, EvCVNotify, EvCVSemPost, EvCVWake,
		EvSemPark, EvSemUnpark, EvFaultInject,
	}
	seen := map[string]bool{}
	for _, ty := range all {
		name := ty.String()
		if name == "unknown" || seen[name] {
			t.Errorf("event %d: bad or duplicate name %q", ty, name)
		}
		seen[name] = true
		switch ty.Category() {
		case "stm", "cv", "sem", "fault":
		default:
			t.Errorf("event %s: bad category %q", name, ty.Category())
		}
	}
	if EventType(0).String() != "unknown" {
		t.Error("zero EventType should be unknown")
	}
	if AbortReasonName(AbortRetry) != "retry" || AbortReasonName(99) != "unknown" {
		t.Error("AbortReasonName mapping broken")
	}
}

func TestWriteChromeTrace(t *testing.T) {
	tr := NewTracer(1024)
	tr.Enable()
	tr.Emit(2, EvCVEnqueue, 2, 0)
	tr.EmitEvent(Event{TS: tr.Now(), Dur: 1500, Type: EvTxnCommit, Lane: 9, A: 2})
	tr.EmitEvent(Event{TS: tr.Now(), Dur: 10, Type: EvTxnAbort, Lane: 9, A: AbortConflict, B: 1})
	tr.Disable()

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Cat  string         `json:"cat"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("got %d trace events, want 3", len(doc.TraceEvents))
	}
	byName := map[string]int{}
	for i, ev := range doc.TraceEvents {
		byName[ev.Name] = i
	}
	enq := doc.TraceEvents[byName["cv.enqueue"]]
	if enq.Ph != "i" || enq.Cat != "cv" {
		t.Errorf("enqueue rendered as %+v", enq)
	}
	com := doc.TraceEvents[byName["txn.commit"]]
	if com.Ph != "X" || com.Dur != 1.5 {
		t.Errorf("commit rendered as %+v", com)
	}
	abt := doc.TraceEvents[byName["txn.abort"]]
	if abt.Args["reason"] != "conflict" {
		t.Errorf("abort args = %v", abt.Args)
	}

	// Nil tracer writes a valid empty trace.
	buf.Reset()
	var nilTr *Tracer
	if err := nilTr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("nil trace not valid JSON: %v", err)
	}
}
