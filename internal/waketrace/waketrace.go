// Package waketrace reconstructs causal wake-propagation DAGs
// (DESIGN.md §15) from trace output: the offline half of the wake-chain
// observability stack. It loads either a Chrome trace_event dump (what
// parsecbench -trace and obs.WriteChromeTrace produce) or a
// flight-recorder snapshot (introspect.Recorder dumps), normalizes the
// flow-tagged events, groups them per wakeID, and derives the reports
// cmd/cvtrace prints: critical path per broadcast, slowest-hop
// attribution, fan-out shape, stall detection, and the structural
// self-checks behind cvtrace -check.
//
// The package is also usable in-run: FromObs converts a live tracer's
// retained events directly, which is how parsecbench and cvstress
// analyze their own broadcasts without a round-trip through JSON.
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
	KindHop     = "hop"     // chain hop posted (obs.EvWakeHop)
	KindConsume = "consume" // wake consumed by a waiter (obs.EvWakeEnd)
	KindTxn     = "txn"     // woken waiter's next transaction (obs.EvWakeTxn)
)

// Event is one normalized flow-tagged trace record. Field meaning per
// kind mirrors the obs event contract: root carries the batch size in A
// and the condvar id in B (CV resolves the name when the dump had one);
// hop carries the poster's node id in A (0 = the notifier's commit
// handler) and the hop index in B; consume carries the hop index in A
// and the consumer code in B; txn carries the hop index in A.
type Event struct {
	TS   int64  // nanoseconds, dump-relative
	Kind string // Kind* constant
	Lane uint64 // node id (hop/consume), cv id (root), txn id (txn)
	Flow uint64 // the wakeID; never zero for events in this package
	A    int64
	B    int64
	CV   string // root only: condvar name, when attributed
}

// Hop is one node's position in a reconstructed wake DAG: the hand-off
// that posted it, the consume that retired it, and the children it
// posted in turn.
type Hop struct {
	Node     uint64 `json:"node"`
	Parent   int64  `json:"parent"` // poster's node id; 0 = notifier-posted
	Index    int64  `json:"hop"`    // 0-based chain position
	PostTS   int64  `json:"post_ts_ns"`
	Consumed bool   `json:"consumed"`
	ConsTS   int64  `json:"consume_ts_ns,omitempty"`
	By       string `json:"by,omitempty"` // waiter | timeout | cancel

	Children []*Hop `json:"-"`
}

// Latency is the hop's post→consume latency, or -1 if never consumed.
func (h *Hop) Latency() int64 {
	if !h.Consumed {
		return -1
	}
	return h.ConsTS - h.PostTS
}

// TxnStep is one EvWakeTxn binding: a woken waiter's next transaction
// claiming its place in the DAG.
type TxnStep struct {
	TS   int64  `json:"ts_ns"`
	Lane uint64 `json:"txn"`
	Hop  int64  `json:"hop"`
}

// DAG is one reconstructed wake flow: everything a single committed
// notify caused.
type DAG struct {
	Flow    uint64 `json:"flow"`
	CV      string `json:"cv,omitempty"`
	Batch   int64  `json:"batch"` // batch size the root announced (0 = root missing)
	RootTS  int64  `json:"root_ts_ns"`
	HasRoot bool   `json:"has_root"`

	Hops    map[uint64]*Hop `json:"-"`
	Roots   []*Hop          `json:"-"` // notifier-posted hops (parent 0)
	Orphans []*Hop          `json:"-"` // hops whose named parent posted no hop in this flow
	Txns    []TxnStep       `json:"-"`
}

// MaxDepth returns the largest 1-based chain depth among consumed hops
// (the quantity cv_wake_chain_depth observes), or 0 with no consumes.
func (d *DAG) MaxDepth() int64 {
	var m int64
	for _, h := range d.Hops {
		if h.Consumed && h.Index+1 > m {
			m = h.Index + 1
		}
	}
	return m
}

// Consumed counts consumed hops, total and by consumer kind.
func (d *DAG) Consumed() (total int, by map[string]int) {
	by = map[string]int{}
	for _, h := range d.Hops {
		if h.Consumed {
			total++
			by[h.By]++
		}
	}
	return total, by
}

// CriticalPath returns the root→leaf chain whose final consume is
// latest relative to the DAG's start — the path that bounds the
// broadcast's commit-to-last-wake latency — ordered root first. Empty
// when nothing was consumed.
func (d *DAG) CriticalPath() []*Hop {
	var leaf *Hop
	for _, h := range d.Hops {
		if !h.Consumed {
			continue
		}
		if leaf == nil || h.ConsTS > leaf.ConsTS {
			leaf = h
		}
	}
	if leaf == nil {
		return nil
	}
	// Walk parent links back to a root. Guard against cycles (corrupt
	// dumps) with a visited set.
	var rev []*Hop
	seen := map[uint64]bool{}
	for h := leaf; h != nil && !seen[h.Node]; {
		seen[h.Node] = true
		rev = append(rev, h)
		if h.Parent == 0 {
			break
		}
		h = d.Hops[uint64(h.Parent)]
	}
	path := make([]*Hop, len(rev))
	for i, h := range rev {
		path[len(rev)-1-i] = h
	}
	return path
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
		e := Event{TS: ev.TS, Lane: ev.Lane, Flow: ev.Flow, A: ev.A, B: ev.B}
		switch ev.Type {
		case obs.EvWakeRoot:
			e.Kind = KindRoot
			if name := obs.EntityName(uint64(ev.B)); name != "" {
				e.CV = name
			}
		case obs.EvWakeHop:
			e.Kind = KindHop
		case obs.EvWakeEnd:
			e.Kind = KindConsume
		case obs.EvWakeTxn:
			e.Kind = KindTxn
		default:
			continue
		}
		out = append(out, e)
	}
	return out
}

// Build groups flow events per wakeID and reconstructs each flow's DAG,
// returned sorted by root (or earliest-event) timestamp.
func Build(evs []Event) []*DAG {
	byFlow := map[uint64][]Event{}
	for _, ev := range evs {
		if ev.Flow == 0 {
			continue
		}
		byFlow[ev.Flow] = append(byFlow[ev.Flow], ev)
	}
	var dags []*DAG
	for flow, fe := range byFlow {
		d := &DAG{Flow: flow, Hops: map[uint64]*Hop{}}
		first := int64(-1)
		for _, ev := range fe {
			if first < 0 || ev.TS < first {
				first = ev.TS
			}
			switch ev.Kind {
			case KindRoot:
				d.HasRoot = true
				d.RootTS = ev.TS
				d.Batch = ev.A
				d.CV = ev.CV
			case KindHop:
				h := d.Hops[ev.Lane]
				if h == nil {
					h = &Hop{Node: ev.Lane}
					d.Hops[ev.Lane] = h
				}
				h.Parent = ev.A
				h.Index = ev.B
				h.PostTS = ev.TS
			case KindConsume:
				h := d.Hops[ev.Lane]
				if h == nil {
					h = &Hop{Node: ev.Lane, Index: ev.A, PostTS: ev.TS}
					d.Hops[ev.Lane] = h
				}
				h.Consumed = true
				h.ConsTS = ev.TS
				h.By = obs.WakeConsumerName(ev.B)
			case KindTxn:
				d.Txns = append(d.Txns, TxnStep{TS: ev.TS, Lane: ev.Lane, Hop: ev.A})
			}
		}
		if !d.HasRoot {
			d.RootTS = first
		}
		for _, h := range d.Hops {
			if h.Parent == 0 {
				d.Roots = append(d.Roots, h)
				continue
			}
			if p := d.Hops[uint64(h.Parent)]; p != nil {
				p.Children = append(p.Children, h)
			} else {
				d.Orphans = append(d.Orphans, h)
			}
		}
		sortHops(d.Roots)
		sortHops(d.Orphans)
		for _, h := range d.Hops {
			sortHops(h.Children)
		}
		sort.Slice(d.Txns, func(i, j int) bool { return d.Txns[i].TS < d.Txns[j].TS })
		dags = append(dags, d)
	}
	sort.Slice(dags, func(i, j int) bool {
		if dags[i].RootTS != dags[j].RootTS {
			return dags[i].RootTS < dags[j].RootTS
		}
		return dags[i].Flow < dags[j].Flow
	})
	return dags
}

func sortHops(hs []*Hop) {
	sort.Slice(hs, func(i, j int) bool {
		if hs[i].PostTS != hs[j].PostTS {
			return hs[i].PostTS < hs[j].PostTS
		}
		return hs[i].Node < hs[j].Node
	})
}

// Check runs the structural self-validation behind cvtrace -check and
// returns one message per violation (empty = clean):
//
//   - every flow with hops has its root event (the mint was traced)
//   - every non-root hop's parent posted a hop in the same flow
//   - every child hop's index is its parent's plus one
//   - notifier-posted hops carry index 0
//   - consumed hops never exceed the batch size the root announced
//   - every txn step's hop index matches some consumed hop
func Check(dags []*DAG) []string {
	var bad []string
	for _, d := range dags {
		if !d.HasRoot {
			bad = append(bad, fmt.Sprintf("flow %d: %d hop(s) but no root event (ring wrap-around? undersized trace buffer)", d.Flow, len(d.Hops)))
		}
		for _, h := range d.Orphans {
			bad = append(bad, fmt.Sprintf("flow %d: node %d names parent %d, which posted no hop in this flow", d.Flow, h.Node, h.Parent))
		}
		consumedIdx := map[int64]bool{}
		for _, h := range d.Hops {
			if h.Parent == 0 && h.Index != 0 {
				bad = append(bad, fmt.Sprintf("flow %d: notifier-posted node %d carries hop index %d, want 0", d.Flow, h.Node, h.Index))
			}
			if h.Consumed {
				consumedIdx[h.Index] = true
			}
			for _, c := range h.Children {
				if c.Index != h.Index+1 {
					bad = append(bad, fmt.Sprintf("flow %d: node %d at hop %d posted node %d at hop %d, want %d", d.Flow, h.Node, h.Index, c.Node, c.Index, h.Index+1))
				}
			}
		}
		if total, _ := d.Consumed(); d.HasRoot && int64(total) > d.Batch {
			bad = append(bad, fmt.Sprintf("flow %d: %d consumed wakes exceed announced batch %d", d.Flow, total, d.Batch))
		}
		for _, t := range d.Txns {
			if !consumedIdx[t.Hop] {
				bad = append(bad, fmt.Sprintf("flow %d: txn %d claims hop %d, but no consumed hop has that index", d.Flow, t.Lane, t.Hop))
			}
		}
	}
	return bad
}

// SplitTruncated partitions flows into window-complete and
// window-truncated. Trace rings and flight recorders retain the last N
// events, but not as one queue: obs.Tracer is sixteen rings sharded by
// lane, each evicting its own oldest, so a flow can keep its root in a
// quiet shard and lose hops from a busy one. horizon is the capture's
// retention horizon (obs.Tracer.Horizon, or what the dump recorded): the
// newest timestamp among the evicted events, zero when nothing was lost.
// A flow's root is its oldest event (the commit handler mints the wakeID
// before the first post), so a flow whose root is missing or stamped at
// or before the horizon may have lost events, and one rooted after it
// kept everything. Analyzers over bounded captures should Check only the
// complete set — where a missing parent is real corruption — and report
// the truncated count; strict checking (Check over the unsplit set)
// treats the capture as whole.
func SplitTruncated(dags []*DAG, horizon int64) (complete, truncated []*DAG) {
	for _, d := range dags {
		if d.HasRoot && (horizon == 0 || d.RootTS > horizon) {
			complete = append(complete, d)
		} else {
			truncated = append(truncated, d)
		}
	}
	return complete, truncated
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
		Kind   string          `json:"kind"`
		Batch  int64           `json:"batch"`
		CV     string          `json:"cv"`
		CVID   int64           `json:"cv_id"`
		Node   uint64          `json:"node"`
		Parent int64           `json:"parent"`
		Hop    int64           `json:"hop"`
		By     string          `json:"by"`
		Txn    json.RawMessage `json:"txn"`
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
			e.A = r.Args.Batch
			e.B = r.Args.CVID
			e.CV = r.Args.CV
		case KindHop:
			e.Lane = r.Args.Node
			e.A = r.Args.Parent
			e.B = r.Args.Hop
		case KindConsume:
			e.Lane = r.Args.Node
			e.A = r.Args.Hop
			e.B = wakeConsumerCode(r.Args.By)
		case KindTxn:
			e.A = r.Args.Hop
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
		if r.Flow == 0 {
			continue
		}
		e := Event{TS: r.TS, Lane: r.Lane, Flow: r.Flow, A: r.A, B: r.B}
		switch r.Type {
		case "cv.wake.root":
			e.Kind = KindRoot
		case "cv.wake.hop":
			e.Kind = KindHop
		case "cv.wake.consume":
			e.Kind = KindConsume
		case "cv.wake.txn":
			e.Kind = KindTxn
		default:
			continue
		}
		out = append(out, e)
	}
	return out, nil
}

func wakeConsumerCode(name string) int64 {
	switch name {
	case "timeout":
		return obs.WakeByTimeout
	case "cancel":
		return obs.WakeByCancel
	default:
		return obs.WakeByWaiter
	}
}
