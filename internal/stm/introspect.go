package stm

import (
	"repro/internal/obs"
	"repro/internal/obs/registry"
)

// This file is the engine's face toward the live-introspection stack
// (DESIGN.md §10): one source-of-truth table over TMStats that backs
// Snapshot, Histograms and RegisterMetrics — so the JSON export and the
// registry expose the same key set by construction.

// tmScalar is one TMStats counter row.
type tmScalar struct {
	name string
	help string
	read func() int64
}

// scalars lists every scalar instrument in TMStats. The reflection test
// in stats_keys_test.go pins this table complete: one row per
// obs.Counter field.
func (s *TMStats) scalars() []tmScalar {
	return []tmScalar{
		{"commits", "outermost commits (incl. serial)", s.Commits.Load},
		{"aborts", "attempts rolled back", s.Aborts.Load},
		{"conflict_aborts", "aborts caused by orec conflicts", s.ConflictAborts.Load},
		{"capacity_aborts", "HTM read/write-set overflow aborts", s.CapacityAborts.Load},
		{"syscall_aborts", "HTM aborts due to Tx.Syscall", s.SyscallAborts.Load},
		{"explicit_aborts", "Tx.Cancel aborts", s.ExplicitAborts.Load},
		{"early_commits", "Tx.CommitEarly (the condvar WAIT path)", s.EarlyCommits.Load},
		{"serial_commits", "commits executed irrevocably", s.SerialCommits.Load},
		{"serial_fallback", "optimistic-to-serial transitions", s.SerialFallback.Load},
		{"relaxed_txns", "AtomicRelaxed invocations", s.RelaxedTxns.Load},
		{"extensions", "successful snapshot extensions", s.Extensions.Load},
		{"retry_aborts", "attempts that called Retry", s.RetryAborts.Load},
		{"retry_waits", "Retry callers that actually slept", s.RetryWaits.Load},
		{"retry_wakes", "sleeping retriers woken by commits", s.RetryWakes.Load},
	}
}

// tmHist is one TMStats histogram row.
type tmHist struct {
	name string
	help string
	h    *obs.Histogram
}

// histograms lists every latency histogram in TMStats; same
// completeness contract as scalars.
func (s *TMStats) histograms() []tmHist {
	return []tmHist{
		{"commit_ns", "wall time of attempts that committed", &s.CommitNanos},
	}
}

// RegisterMetrics registers every engine instrument into r under the
// engine's name label: counters as stm_<name>_total, histograms as
// stm_<name>. Call once at construction (or per run against a
// long-lived registry — re-registration replaces the previous run's
// sources). Registration is pull-only: the hot path keeps its plain
// atomics and never sees the registry.
func (e *Engine) RegisterMetrics(r *registry.Registry) {
	if r == nil {
		return
	}
	labels := registry.Labels{"engine": e.cfg.Name, "algorithm": e.cfg.Algorithm.String()}
	for _, sc := range e.Stats.scalars() {
		r.RegisterCounter("stm_"+sc.name+"_total", sc.help, labels, sc.read)
	}
	for _, th := range e.Stats.histograms() {
		r.RegisterHistogram("stm_"+th.name, th.help, labels, th.h.Snapshot)
	}
	// Contention attribution (profile.go): the per-(var, reason) abort
	// counters as one dynamic-label counter family, and the structured
	// top-K table for /debug/cv/conflicts, cvtop and flight dumps. Both
	// are pull-only; before the first abort they render empty.
	r.RegisterCounterSet("stm_conflicts_total",
		"aborts attributed per conflicting Var and abort reason",
		labels, e.conflictSamples)
	r.RegisterConflicts(e.cfg.Name, e.ConflictProfile)
}
