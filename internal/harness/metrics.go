package harness

// Machine-readable metrics output: per-trial snapshots of the TM and
// condvar instruments (counters plus log2-bucketed latency histograms from
// internal/obs), serialized as one JSON document per sweep. This is the
// companion to WriteCSV for questions the cell aggregates cannot answer —
// abort-reason mixes, wait-latency and commit-latency distributions —
// without re-running the sweep.

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/obs"
)

// TrialMetrics is one timed trial's instrument snapshot. TM maps are nil
// for the pthread system (no engine); CV maps are nil when the workload
// created no TM condvars or metrics collection was off.
type TrialMetrics struct {
	ElapsedNS int64 `json:"elapsed_ns"`

	// TM holds the engine counter snapshot (commits, aborts and their
	// reason split, serial fallbacks, ...), TMHist the engine's one
	// latency histogram (commit_ns).
	TM     map[string]int64                 `json:"tm,omitempty"`
	TMHist map[string]obs.HistogramSnapshot `json:"tm_hist,omitempty"`

	// CV holds the condvar counter snapshot (waits, notifies, ...),
	// CVHist the wait-latency split (enqueue_to_notify_ns,
	// notify_to_wake_ns), the broadcast commit-to-last-wake time
	// (broadcast_ns) and the semaphore park times (sem_park_ns).
	CV     map[string]int64                 `json:"cv,omitempty"`
	CVHist map[string]obs.HistogramSnapshot `json:"cv_hist,omitempty"`

	// Fault holds the chaos injector's cumulative per-point draw/fire
	// counts ("<point>.drawn" / "<point>.fired"); nil outside chaos
	// sweeps.
	Fault map[string]uint64 `json:"fault,omitempty"`
}

// metricsCell is the JSON shape of one sweep cell.
type metricsCell struct {
	Benchmark string         `json:"benchmark"`
	System    string         `json:"system"`
	Threads   int            `json:"threads"`
	MeanNS    int64          `json:"mean_ns"`
	MinNS     int64          `json:"min_ns"`
	MaxNS     int64          `json:"max_ns"`
	Checksum  string         `json:"checksum"`
	Commits   int64          `json:"commits"`
	Aborts    int64          `json:"aborts"`
	Serial    int64          `json:"serial_commits"`
	Early     int64          `json:"early_commits"`
	Trials    []TrialMetrics `json:"trials,omitempty"`
}

// metricsDoc is the JSON shape of a whole sweep.
type metricsDoc struct {
	Machine string        `json:"machine"`
	Scale   float64       `json:"scale"`
	Seed    uint64        `json:"seed"`
	Trials  int           `json:"trials"`
	Warmup  int           `json:"warmup"`
	Cells   []metricsCell `json:"cells"`
}

// WriteMetricsJSON serializes the sweep — cell aggregates plus, when the
// sweep ran with CollectMetrics, the per-trial instrument snapshots — as
// an indented JSON document.
func (s *Sweep) WriteMetricsJSON(w io.Writer) error {
	doc := metricsDoc{
		Machine: s.Config.Machine.String(),
		Scale:   s.Config.Scale,
		Seed:    s.Config.Seed,
		Trials:  s.Config.Trials,
		Warmup:  s.Config.Warmup,
	}
	for _, c := range s.Cells {
		doc.Cells = append(doc.Cells, metricsCell{
			Benchmark: c.Benchmark,
			System:    c.System.Short(),
			Threads:   c.Threads,
			MeanNS:    c.Mean.Nanoseconds(),
			MinNS:     c.Min.Nanoseconds(),
			MaxNS:     c.Max.Nanoseconds(),
			Checksum:  fmt.Sprintf("%#x", c.Checksum),
			Commits:   c.Commits,
			Aborts:    c.Aborts,
			Serial:    c.SerialCommits,
			Early:     c.EarlyCommits,
			Trials:    c.Trials,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
