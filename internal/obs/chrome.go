package obs

import (
	"encoding/json"
	"io"
)

// Chrome trace_event exporter: renders the retained events in the JSON
// Object Format of the Trace Event specification ({"traceEvents": [...]}),
// which chrome://tracing and Perfetto both load directly. Span events
// (Dur > 0) become complete ("X") events; wake-chain events carrying a
// Flow id become flow events ("s"/"t"/"f" sharing one name and id, the
// spec's flow-binding rule) so a broadcast's wake DAG renders as arrows
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
		// a cv.notify → sem.unpark chain names the condvar that caused
		// it. Named condvars (CondVar.SetName) resolve to their name.
		args := map[string]any{"node": ev.A}
		if ev.B != 0 {
			if name := EntityName(uint64(ev.B)); name != "" {
				args["cv"] = name
			} else {
				args["cv_id"] = ev.B
			}
		}
		return args
	case EvCVSemPost:
		return map[string]any{"node": ev.A, "queue_depth": ev.B}
	case EvSemUnpark:
		return map[string]any{"lane": ev.A}
	case EvWakeRoot:
		args := map[string]any{"kind": "root", "batch": ev.A}
		if ev.B != 0 {
			if name := EntityName(uint64(ev.B)); name != "" {
				args["cv"] = name
			} else {
				args["cv_id"] = ev.B
			}
		}
		return args
	case EvWakeHop:
		return map[string]any{"kind": "hop", "node": ev.Lane, "parent": ev.A, "hop": ev.B}
	case EvWakeEnd:
		return map[string]any{"kind": "consume", "node": ev.Lane, "hop": ev.A, "by": WakeConsumerName(ev.B)}
	case EvWakeTxn:
		return map[string]any{"kind": "txn", "txn": ev.Lane, "hop": ev.A}
	default:
		return nil
	}
}

// flowPhase maps a flow-carrying event to its Chrome flow phase. Flow
// events bind by (name, cat, id), so every phase of one wake DAG shares
// the name "cv.wake"; the event-specific detail lives in args. terminal
// marks an EvWakeEnd whose node forwarded no successor — the end of its
// chain — which becomes the flow-finish phase.
func flowPhase(ev Event, terminal bool) (name, ph, bp string, ok bool) {
	switch ev.Type {
	case EvWakeRoot:
		return "cv.wake", "s", "", true
	case EvWakeHop, EvWakeTxn:
		return "cv.wake", "t", "", true
	case EvWakeEnd:
		if terminal {
			// bp:"e" binds the finish to the enclosing slice rather than
			// the next one, per the spec's flow-end recommendation.
			return "cv.wake", "f", "e", true
		}
		return "cv.wake", "t", "", true
	default:
		return "", "", "", false
	}
}

// WriteChromeTrace writes the retained events as Chrome trace_event JSON.
// Call after emitters have quiesced. Safe on nil (writes an empty trace).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	events := t.Events()
	// Pre-pass for flow termination: a consume is terminal for its chain
	// iff no hop of the same flow names its node as parent (the node
	// forwarded nobody). Terminal consumes render as flow-finish.
	forwarders := make(map[uint64]map[int64]bool)
	for _, ev := range events {
		if ev.Type == EvWakeHop && ev.Flow != 0 {
			m := forwarders[ev.Flow]
			if m == nil {
				m = make(map[int64]bool)
				forwarders[ev.Flow] = m
			}
			m[ev.A] = true
		}
	}
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
		terminal := ev.Type == EvWakeEnd && !forwarders[ev.Flow][int64(ev.Lane)]
		if name, ph, bp, isFlow := flowPhase(ev, terminal); ev.Flow != 0 && isFlow {
			ce.Name, ce.Ph, ce.BP, ce.ID = name, ph, bp, ev.Flow
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
