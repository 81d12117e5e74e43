package registry

import (
	"encoding/json"
	"io"
	"time"

	"repro/internal/obs"
)

// HistVar is the JSON shape of one histogram in the /debug/cv/vars
// export: summary statistics cheap enough for a 1-second poller (cvtop)
// to diff, instead of the full bucket vector.
type HistVar struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"`
	Max   int64 `json:"max"`
	P50   int64 `json:"p50"`
	P99   int64 `json:"p99"`
}

// Vars returns every registered source as a flat expvar-style map:
// scalars as int64 values, histograms as HistVar summaries, keyed by
// `name{label="value",...}`.
func (r *Registry) Vars() map[string]any {
	out := make(map[string]any)
	for _, s := range r.scalarsSorted() {
		out[s.name+s.labels] = s.read()
	}
	for _, s := range r.setsSorted() {
		for _, sm := range s.read() {
			out[s.name+s.renderSample(sm)] = sm.Value
		}
	}
	for _, h := range r.histsSorted() {
		snap := h.read()
		out[h.name+h.labels] = HistVar{
			Count: snap.Count,
			Sum:   snap.Sum,
			Max:   snap.Max,
			P50:   snap.Quantile(0.50),
			P99:   snap.Quantile(0.99),
		}
	}
	return out
}

// WriteVars writes Vars as indented JSON (the /debug/cv/vars body).
func (r *Registry) WriteVars(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Vars())
}

// Snapshot is a full point-in-time copy of the registry: every scalar,
// every histogram (full buckets, not the summary), and every live wait
// chain. It is the registry half of a flight-recorder dump.
type Snapshot struct {
	TakenAt    time.Time                        `json:"taken_at"`
	Scalars    map[string]int64                 `json:"scalars"`
	Histograms map[string]obs.HistogramSnapshot `json:"histograms"`
	Waiters    []Waiter                         `json:"waiters,omitempty"`
	// Conflicts is the top-K abort-attribution table per engine
	// (DESIGN.md §13); empty until an engine records an abort.
	// Flight-recorder dumps inherit it through this field.
	Conflicts map[string][]ConflictVar `json:"conflicts,omitempty"`
}

// snapshotConflictTopK bounds the attribution rows embedded per engine
// in a Snapshot — enough to see the ranking without bloating dumps.
const snapshotConflictTopK = 16

// TakeSnapshot reads every source once.
func (r *Registry) TakeSnapshot() Snapshot {
	snap := Snapshot{
		TakenAt:    time.Now(),
		Scalars:    make(map[string]int64),
		Histograms: make(map[string]obs.HistogramSnapshot),
	}
	for _, s := range r.scalarsSorted() {
		snap.Scalars[s.name+s.labels] = s.read()
	}
	for _, s := range r.setsSorted() {
		for _, sm := range s.read() {
			snap.Scalars[s.name+s.renderSample(sm)] = sm.Value
		}
	}
	for _, h := range r.histsSorted() {
		snap.Histograms[h.name+h.labels] = h.read()
	}
	snap.Waiters = r.Waiters()
	if c := r.Conflicts(snapshotConflictTopK); len(c) > 0 {
		snap.Conflicts = c
	}
	return snap
}
