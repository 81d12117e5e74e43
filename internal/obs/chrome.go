package obs

import (
	"encoding/json"
	"io"
	"os"
)

// Chrome trace_event exporter: renders the retained events in the JSON
// Object Format of the Trace Event specification ({"traceEvents": [...]}),
// which chrome://tracing and Perfetto both load directly. Span events
// (Dur > 0) become complete ("X") events; wake events carrying a Flow
// id become flow events ("s"/"t"/"f" sharing one name and id, the
// spec's flow-binding rule) so a broadcast's wake-ups render as arrows
// across lanes; everything else becomes a thread-scoped instant ("i").
// Lanes map to tids, so one transaction's or one waiter's events share a
// track.

// chromeEvent is one trace_event record. Timestamps are microseconds
// (floats), per the spec.
type chromeEvent struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   uint64         `json:"tid"`
	Scope string         `json:"s,omitempty"`
	ID    uint64         `json:"id,omitempty"`
	BP    string         `json:"bp,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeDoc carries, beside the spec's keys, the tracer's retention
// horizon (Tracer.Horizon, nanoseconds; viewers ignore unknown keys) so
// offline analyzers can tell a flow the ring cut short from a broken one.
type chromeDoc struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	HorizonNS       int64         `json:"retentionHorizonNs,omitempty"`
}

// chromeArgs names the A/B arguments per event type for the viewer.
func chromeArgs(ev Event) map[string]any {
	switch ev.Type {
	case EvTxnCommit, EvTxnEarlyCommit, EvTxnSerial:
		return map[string]any{"attempts": ev.A}
	case EvTxnAbort:
		return map[string]any{"reason": AbortReasonName(ev.A), "attempt": ev.B}
	case EvHandlerRun:
		return map[string]any{"handlers": ev.A}
	case EvCVEnqueue, EvCVNotify, EvCVWake:
		// B carries the condvar id (0 from pre-attribution emitters), so
		// a cv.notify → sem.unpark chain names the condvar that caused it.
		return cvArg(map[string]any{"node": ev.A}, ev.B)
	case EvCVSemPost:
		return map[string]any{"node": ev.A}
	case EvSemUnpark:
		return map[string]any{"lane": ev.A}
	case EvWakeRoot:
		return cvArg(map[string]any{"kind": "root", "batch": ev.A}, ev.B)
	case EvWakePost:
		return map[string]any{"kind": "post", "node": ev.Lane}
	case EvWakeEnd:
		return map[string]any{"kind": "consume", "node": ev.Lane, "by": WakeConsumerName(ev.B)}
	case EvWakeTxn:
		return map[string]any{"kind": "txn", "txn": ev.Lane, "node": ev.A}
	default:
		return nil
	}
}

// cvArg adds the condvar an event belongs to: its name when it was named
// (CondVar.SetName), else its id; nothing for id 0.
func cvArg(args map[string]any, id int64) map[string]any {
	if name := EntityName(uint64(id)); name != "" {
		args["cv"] = name
	} else if id != 0 {
		args["cv_id"] = id
	}
	return args
}

// flowPhase maps a flow-carrying event type to its Chrome flow phase
// ("" for every other type). Flow events bind by (name, cat, id), so
// every phase of one wake flow shares the name "cv.wake"; the
// event-specific detail lives in args. Each consume ends its post's
// arrow, so it is a flow-finish.
func flowPhase(t EventType) (ph, bp string) {
	switch t {
	case EvWakeRoot:
		return "s", ""
	case EvWakePost, EvWakeTxn:
		return "t", ""
	case EvWakeEnd:
		// bp:"e" binds the finish to the enclosing slice rather than
		// the next one, per the spec's flow-end recommendation.
		return "f", "e"
	default:
		return "", ""
	}
}

// WriteChromeTrace writes the retained events as Chrome trace_event JSON.
// Call after emitters have quiesced. Safe on nil (writes an empty trace).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	doc := chromeDoc{
		TraceEvents:     make([]chromeEvent, 0, len(events)),
		DisplayTimeUnit: "ns",
		HorizonNS:       t.Horizon(),
	}
	for _, ev := range events {
		ce := chromeEvent{
			Name: ev.Type.String(),
			Cat:  ev.Type.Category(),
			TS:   float64(ev.TS) / 1e3,
			PID:  1,
			TID:  ev.Lane % (1 << 31), // keep tids in JSON-safe integer range
			Args: chromeArgs(ev),
		}
		if ph, bp := flowPhase(ev.Type); ev.Flow != 0 && ph != "" {
			ce.Name, ce.Ph, ce.BP, ce.ID = "cv.wake", ph, bp, ev.Flow
		} else if ev.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = float64(ev.Dur) / 1e3
		} else {
			ce.Ph = "i"
			ce.Scope = "t"
		}
		doc.TraceEvents = append(doc.TraceEvents, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(doc)
}

// WriteChromeTraceFile writes the Chrome trace to a new file at path
// (load it at chrome://tracing or https://ui.perfetto.dev).
func (t *Tracer) WriteChromeTraceFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChromeTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
