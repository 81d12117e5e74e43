// Package waketrace reconstructs causal wake flows (DESIGN.md §15) from
// trace output: the offline half of the wake-trace observability stack.
// It loads either a Chrome trace_event dump (what parsecbench -trace and
// obs.WriteChromeTrace produce) or a flight-recorder snapshot
// (introspect.Recorder dumps), normalizes the flow-tagged events, groups
// them per wakeID, and derives the reports cmd/cvtrace prints: the last
// wake per broadcast, post-to-consume latency, stall detection, and the
// structural self-checks behind cvtrace -check.
//
// The package is also usable in-run: CheckTracer validates a live
// tracer's retained events directly, which is how parsecbench and
// cvstress check their own broadcasts without a round-trip through JSON.
package waketrace

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"

	"repro/internal/obs"
)

// Event kinds, matching the args.kind values the Chrome exporter writes
// and the obs event types one-to-one.
const (
	KindRoot    = "root"    // committed notify minted the flow (obs.EvWakeRoot)
	KindPost    = "post"    // commit handler posted a dequeued waiter (obs.EvWakePost)
	KindConsume = "consume" // wake consumed by a waiter (obs.EvWakeEnd)
	KindTxn     = "txn"     // woken waiter's next transaction (obs.EvWakeTxn)
)

// kindOf maps the obs event names (what flight dumps record) to kinds.
var kindOf = map[string]string{
	obs.EvWakeRoot.String(): KindRoot,
	obs.EvWakePost.String(): KindPost,
	obs.EvWakeEnd.String():  KindConsume,
	obs.EvWakeTxn.String():  KindTxn,
}

// Event is one normalized flow-tagged trace record. Field meaning per
// kind mirrors the obs event contract: root carries the batch size in A
// and the condvar id in B (CV resolves the name when the dump had one);
// consume carries the consumer code in B; txn carries the waiter's node
// id in A.
type Event struct {
	TS   int64  // nanoseconds, dump-relative
	Kind string // Kind* constant
	Lane uint64 // node id (post/consume), cv id (root), txn id (txn)
	Flow uint64 // the wakeID; never zero for events in this package
	A    int64
	B    int64
	CV   string // root only: condvar name, when attributed
}

// Wake is one dequeued waiter's share of a flow: the commit handler's
// post and the consume that retired it. A well-formed wake has exactly
// one post and at most one consume.
type Wake struct {
	Node     uint64
	Posts    int
	PostTS   int64
	Consumes int
	ConsTS   int64
	By       string // waiter | timeout | cancel
}

// Latency is the wake's post→consume latency, or -1 if never consumed.
func (w *Wake) Latency() int64 {
	if w.Consumes == 0 {
		return -1
	}
	return w.ConsTS - w.PostTS
}

// TxnStep is one EvWakeTxn binding: a woken waiter's next transaction
// claiming its place in the flow.
type TxnStep struct {
	Lane uint64 // the transaction's id
	Node uint64 // the waiter it resumed
}

// Flow is one reconstructed wake flow: everything a single committed
// notify caused — root → one post per dequeued node → one consume per
// post → optional txn steps.
type Flow struct {
	ID      uint64
	CV      string
	Batch   int64 // batch size the root announced (0 = root missing)
	RootTS  int64
	HasRoot bool

	Wakes map[uint64]*Wake // by node id
	Txns  []TxnStep
}

// wake returns node's entry, creating it on first sight.
func (f *Flow) wake(node uint64) *Wake {
	w := f.Wakes[node]
	if w == nil {
		w = &Wake{Node: node}
		f.Wakes[node] = w
	}
	return w
}

// Consumed counts consumed wakes, total and by consumer kind.
func (f *Flow) Consumed() (total int, by map[string]int) {
	by = map[string]int{}
	for _, w := range f.Wakes {
		if w.Consumes > 0 {
			total++
			by[w.By]++
		}
	}
	return total, by
}

// Last returns the wake whose consume is latest — the one that bounds
// the broadcast's commit-to-last-wake latency — or nil when nothing was
// consumed.
func (f *Flow) Last() *Wake {
	var last *Wake
	for _, w := range f.Wakes {
		if w.Consumes > 0 && (last == nil || w.ConsTS > last.ConsTS) {
			last = w
		}
	}
	return last
}

// FromObs normalizes a live tracer's retained events (obs.Tracer.Events)
// into flow events, dropping everything untagged. This is the in-run
// entry point; offline loads go through LoadFile/Parse.
func FromObs(evs []obs.Event) []Event {
	var out []Event
	for _, ev := range evs {
		if ev.Flow == 0 {
			continue
		}
		e := Event{TS: ev.TS, Kind: kindOf[ev.Type.String()], Lane: ev.Lane, Flow: ev.Flow, A: ev.A, B: ev.B}
		if e.Kind == "" {
			continue
		}
		if e.Kind == KindRoot {
			e.CV = obs.EntityName(uint64(ev.B))
		}
		out = append(out, e)
	}
	return out
}

// Build groups flow events per wakeID and reconstructs each flow,
// returned sorted by root (or earliest-event) timestamp.
func Build(evs []Event) []*Flow {
	byID := map[uint64]*Flow{}
	var flows []*Flow
	for _, ev := range evs {
		f := byID[ev.Flow]
		if f == nil {
			f = &Flow{ID: ev.Flow, RootTS: ev.TS, Wakes: map[uint64]*Wake{}}
			byID[ev.Flow] = f
			flows = append(flows, f)
		}
		if !f.HasRoot && ev.TS < f.RootTS {
			f.RootTS = ev.TS // rootless flow: anchor at its earliest event
		}
		switch ev.Kind {
		case KindRoot:
			f.HasRoot, f.RootTS, f.Batch, f.CV = true, ev.TS, ev.A, ev.CV
		case KindPost:
			w := f.wake(ev.Lane)
			w.Posts++
			w.PostTS = ev.TS
		case KindConsume:
			w := f.wake(ev.Lane)
			w.Consumes++
			w.ConsTS = ev.TS
			w.By = obs.WakeConsumerName(ev.B)
		case KindTxn:
			f.Txns = append(f.Txns, TxnStep{Lane: ev.Lane, Node: uint64(ev.A)})
		}
	}
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].RootTS != flows[j].RootTS {
			return flows[i].RootTS < flows[j].RootTS
		}
		return flows[i].ID < flows[j].ID
	})
	return flows
}

// Check runs the structural self-validation behind cvtrace -check and
// returns one message per violation (empty = clean):
//
//   - every flow has its root event (the mint was traced)
//   - every node in a flow was posted exactly once and consumed at most
//     once (a consume with no post is a wake nobody sent)
//   - the nodes posted or consuming never exceed the batch size the root
//     announced (so neither posts nor consumes do)
//   - every txn step names a node that consumed a wake in its flow
func Check(flows []*Flow) []string {
	var bad []string
	for _, f := range flows {
		if !f.HasRoot {
			bad = append(bad, fmt.Sprintf("flow %d: %d wake(s) but no root event (ring wrap-around? undersized trace buffer)", f.ID, len(f.Wakes)))
		}
		for _, w := range f.Wakes {
			if w.Posts == 0 {
				bad = append(bad, fmt.Sprintf("flow %d: node %d consumed a wake nobody posted in this flow", f.ID, w.Node))
			}
			if w.Posts > 1 || w.Consumes > 1 {
				bad = append(bad, fmt.Sprintf("flow %d: node %d posted %d time(s) and consumed %d, want one post and at most one consume", f.ID, w.Node, w.Posts, w.Consumes))
			}
		}
		if f.HasRoot && int64(len(f.Wakes)) > f.Batch {
			bad = append(bad, fmt.Sprintf("flow %d: %d node(s) posted or consuming exceed announced batch %d", f.ID, len(f.Wakes), f.Batch))
		}
		for _, t := range f.Txns {
			if w := f.Wakes[t.Node]; w == nil || w.Consumes == 0 {
				bad = append(bad, fmt.Sprintf("flow %d: txn %d claims node %d, which consumed no wake in this flow", f.ID, t.Lane, t.Node))
			}
		}
	}
	return bad
}

// SplitTruncated partitions flows into window-complete and
// window-truncated. Trace rings and flight recorders retain the last N
// events, but not as one queue: obs.Tracer is sixteen rings sharded by
// lane, each evicting its own oldest, so a flow can keep its root in a
// quiet shard and lose posts from a busy one. horizon is the capture's
// retention horizon (obs.Tracer.Horizon, or what the dump recorded): the
// newest timestamp among the evicted events, zero when nothing was lost.
// A flow's root is its oldest event (the commit handler mints the wakeID
// before the first post), so a flow whose root is missing or stamped at
// or before the horizon may have lost events, and one rooted after it
// kept everything. Analyzers over bounded captures should Check only the
// complete set — where a missing post is real corruption — and report
// the truncated count; strict checking (Check over the unsplit set)
// treats the capture as whole.
func SplitTruncated(flows []*Flow, horizon int64) (complete, truncated []*Flow) {
	for _, f := range flows {
		if f.HasRoot && (horizon == 0 || f.RootTS > horizon) {
			complete = append(complete, f)
		} else {
			truncated = append(truncated, f)
		}
	}
	return complete, truncated
}

// CheckTracer is the in-run gate behind parsecbench -trace and cvstress
// -trace: rebuild the flows a quiesced tracer retained, set aside the
// ones its ring cut short, and Check the rest.
func CheckTracer(tr *obs.Tracer) (complete, truncated []*Flow, problems []string) {
	complete, truncated = SplitTruncated(Build(FromObs(tr.Events())), tr.Horizon())
	return complete, truncated, Check(complete)
}

// LoadFile reads and parses a trace dump, auto-detecting the format: a
// Chrome trace_event document ("traceEvents") or a flight-recorder dump
// ("trace_events"). It returns the flow events and the retention horizon
// the dump recorded (see SplitTruncated; zero when nothing was evicted).
func LoadFile(path string) (evs []Event, horizon int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, err
	}
	return Parse(data)
}

// Parse auto-detects and parses dump bytes; see LoadFile.
func Parse(data []byte) (evs []Event, horizon int64, err error) {
	var probe struct {
		Chrome        []json.RawMessage `json:"traceEvents"`
		ChromeHorizon int64             `json:"retentionHorizonNs"`
		Flight        []json.RawMessage `json:"trace_events"`
		FlightHorizon int64             `json:"trace_horizon_ns"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return nil, 0, fmt.Errorf("waketrace: not a JSON trace dump: %w", err)
	}
	switch {
	case probe.Chrome != nil:
		evs, err = parseChrome(data)
		return evs, probe.ChromeHorizon, err
	case probe.Flight != nil:
		evs, err = parseFlight(data)
		return evs, probe.FlightHorizon, err
	default:
		return nil, 0, fmt.Errorf("waketrace: neither a Chrome trace (traceEvents) nor a flight dump (trace_events)")
	}
}

// chromeRecord is the subset of a Chrome trace_event record the
// reconstruction needs. Flow detail lives in args (the exporter's
// chromeArgs): kind plus the per-kind fields.
type chromeRecord struct {
	Name string  `json:"name"`
	TS   float64 `json:"ts"` // microseconds
	TID  uint64  `json:"tid"`
	ID   uint64  `json:"id"`
	Args struct {
		Kind  string `json:"kind"`
		Batch int64  `json:"batch"`
		CV    string `json:"cv"`
		CVID  int64  `json:"cv_id"`
		Node  uint64 `json:"node"`
		By    string `json:"by"`
	} `json:"args"`
}

func parseChrome(data []byte) ([]Event, error) {
	var doc struct {
		TraceEvents []chromeRecord `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("waketrace: chrome trace: %w", err)
	}
	var out []Event
	for _, r := range doc.TraceEvents {
		if r.ID == 0 || r.Args.Kind == "" {
			continue
		}
		e := Event{
			TS:   int64(r.TS * 1e3),
			Lane: r.TID,
			Flow: r.ID,
			Kind: r.Args.Kind,
		}
		switch r.Args.Kind {
		case KindRoot:
			e.A, e.B, e.CV = r.Args.Batch, r.Args.CVID, r.Args.CV
		case KindPost:
			e.Lane = r.Args.Node
		case KindConsume:
			e.Lane, e.B = r.Args.Node, wakeConsumerCode(r.Args.By)
		case KindTxn:
			e.A = int64(r.Args.Node)
		default:
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

// flightRecord mirrors introspect.FlightEvent (decoded structurally so
// this package does not import the introspection stack).
type flightRecord struct {
	TS   int64  `json:"ts_ns"`
	Type string `json:"type"`
	Lane uint64 `json:"lane"`
	A    int64  `json:"a"`
	B    int64  `json:"b"`
	Flow uint64 `json:"flow"`
}

func parseFlight(data []byte) ([]Event, error) {
	var doc struct {
		TraceEvents []flightRecord `json:"trace_events"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("waketrace: flight dump: %w", err)
	}
	var out []Event
	for _, r := range doc.TraceEvents {
		if kind := kindOf[r.Type]; r.Flow != 0 && kind != "" {
			out = append(out, Event{TS: r.TS, Kind: kind, Lane: r.Lane, Flow: r.Flow, A: r.A, B: r.B})
		}
	}
	return out, nil
}

// wakeConsumerCode inverts obs.WakeConsumerName (waiter when unknown).
func wakeConsumerCode(name string) int64 {
	for by := obs.WakeByTimeout; by <= obs.WakeByCancel; by++ {
		if obs.WakeConsumerName(by) == name {
			return by
		}
	}
	return obs.WakeByWaiter
}
