package waketrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// Options tunes Analyze.
type Options struct {
	// StallThreshold flags any wake whose post→consume gap exceeds it.
	// Zero disables stall detection.
	StallThreshold time.Duration
}

// FlowReport is the per-broadcast analysis of one wake flow.
type FlowReport struct {
	Flow       uint64         `json:"flow"`
	CV         string         `json:"cv,omitempty"`
	Batch      int64          `json:"batch"`
	HasRoot    bool           `json:"has_root"`
	Posts      int            `json:"posts"`
	Consumed   int            `json:"consumed"`
	ConsumedBy map[string]int `json:"consumed_by,omitempty"`
	TxnSteps   int            `json:"txn_steps"`

	// The last wake: root's mint to the latest consume, split at that
	// waiter's post into the commit handler's share (the serial loop
	// reaching it) and the waiter's own post→consume latency.
	SpanNS        int64  `json:"span_ns"`
	LastNode      uint64 `json:"last_node,omitempty"`
	LastBy        string `json:"last_by,omitempty"`
	LastPostNS    int64  `json:"last_post_ns"`    // root → the last waiter's post
	LastLatencyNS int64  `json:"last_latency_ns"` // its post → consume
}

// Stall is a wake whose post→consume gap exceeded the threshold, or a
// posted wake that was never consumed at all (gap -1).
type Stall struct {
	Flow  uint64 `json:"flow"`
	Node  uint64 `json:"node"`
	GapNS int64  `json:"gap_ns"` // -1: posted but never consumed
}

// Report is the full analysis cvtrace renders.
type Report struct {
	Flows    int `json:"flows"`
	Posts    int `json:"posts"`
	Consumed int `json:"consumed"`

	// WakeP50/WakeP99 summarize post→consume latency over every consumed
	// wake, the offline mirror of cv_notify_to_wake_ns.
	WakeP50NS int64 `json:"wake_p50_ns"`
	WakeP99NS int64 `json:"wake_p99_ns"`

	PerFlow  []FlowReport `json:"per_flow"`
	Stalls   []Stall      `json:"stalls,omitempty"`
	Problems []string     `json:"problems,omitempty"` // Check violations
}

// Analyze derives the full report from reconstructed flows.
func Analyze(flows []*Flow, opts Options) Report {
	rep := Report{Flows: len(flows)}
	var lats []int64
	for _, f := range flows {
		total, by := f.Consumed()
		fr := FlowReport{
			Flow:       f.ID,
			CV:         f.CV,
			Batch:      f.Batch,
			HasRoot:    f.HasRoot,
			Posts:      len(f.Wakes),
			Consumed:   total,
			ConsumedBy: by,
			TxnSteps:   len(f.Txns),
		}
		rep.Posts += len(f.Wakes)
		rep.Consumed += total
		for _, w := range f.Wakes {
			lat := w.Latency()
			if lat >= 0 {
				lats = append(lats, lat)
			}
			if opts.StallThreshold > 0 && (lat < 0 || lat > opts.StallThreshold.Nanoseconds()) {
				rep.Stalls = append(rep.Stalls, Stall{Flow: f.ID, Node: w.Node, GapNS: lat})
			}
		}
		if last := f.Last(); last != nil {
			fr.SpanNS = last.ConsTS - f.RootTS
			fr.LastNode, fr.LastBy = last.Node, last.By
			fr.LastPostNS = last.PostTS - f.RootTS
			fr.LastLatencyNS = last.Latency()
		}
		rep.PerFlow = append(rep.PerFlow, fr)
	}
	sort.Slice(rep.Stalls, func(i, j int) bool { return rep.Stalls[i].GapNS > rep.Stalls[j].GapNS })
	rep.WakeP50NS = quantile(lats, 0.50)
	rep.WakeP99NS = quantile(lats, 0.99)
	rep.Problems = Check(flows)
	return rep
}

// quantile returns the q-quantile of vals (nearest-rank), or 0 if empty.
// vals is sorted in place.
func quantile(vals []int64, q float64) int64 {
	if len(vals) == 0 {
		return 0
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	idx := int(q * float64(len(vals)-1))
	return vals[idx]
}

// WriteJSON renders the report as indented JSON.
func (r Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteText renders the human-readable report.
func (r Report) WriteText(w io.Writer) error {
	fmt.Fprintf(w, "wake flows: %d   posts: %d   consumed: %d\n", r.Flows, r.Posts, r.Consumed)
	if r.Consumed > 0 {
		fmt.Fprintf(w, "post-to-consume latency: p50 %s   p99 %s\n", ns(r.WakeP50NS), ns(r.WakeP99NS))
	}
	fmt.Fprintf(w, "\nper-broadcast last wake:\n")
	for _, fr := range r.PerFlow {
		cv := fr.CV
		if cv == "" {
			cv = "-"
		}
		fmt.Fprintf(w, "  flow %-6d cv %-20s batch %-4d consumed %-4d span %s",
			fr.Flow, cv, fr.Batch, fr.Consumed, ns(fr.SpanNS))
		if fr.LastNode != 0 {
			fmt.Fprintf(w, "  = node %d (%s) posted +%s, woke +%s",
				fr.LastNode, fr.LastBy, ns(fr.LastPostNS), ns(fr.LastLatencyNS))
		}
		fmt.Fprintln(w)
		for k, v := range fr.ConsumedBy {
			if k != "waiter" && v > 0 {
				fmt.Fprintf(w, "    consumed by %s: %d\n", k, v)
			}
		}
	}
	if len(r.Stalls) > 0 {
		fmt.Fprintf(w, "\nstalls (post-to-consume gap over threshold):\n")
		for _, s := range r.Stalls {
			gap := ns(s.GapNS)
			if s.GapNS < 0 {
				gap = "never consumed"
			}
			fmt.Fprintf(w, "  flow %-6d node %-6d %s\n", s.Flow, s.Node, gap)
		}
	}
	if len(r.Problems) > 0 {
		fmt.Fprintf(w, "\nSTRUCTURAL PROBLEMS:\n")
		for _, p := range r.Problems {
			fmt.Fprintf(w, "  %s\n", p)
		}
	}
	return nil
}

func ns(v int64) string {
	if v < 0 {
		return "-"
	}
	return time.Duration(v).String()
}
