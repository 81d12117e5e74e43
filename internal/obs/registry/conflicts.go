package registry

import "sort"

// This file extends the registry with the two source shapes the
// contention-attribution layer (stm/profile.go, DESIGN.md §13) needs and
// plain scalar sources cannot express:
//
//   - counter *sets*: one family whose sample labels are data-dependent
//     (`stm_conflicts_total{var=...,reason=...}` — the vars are not known
//     at registration time), read as a batch at scrape time;
//   - structured conflict tables: the ranked top-K per-Var abort
//     attribution served on /debug/cv/conflicts, rendered by cvtop, and
//     embedded in flight-recorder dumps via TakeSnapshot.

// Sample is one sample of a counter set: the dynamic labels (merged
// with the set's base labels at render time) and the current value.
type Sample struct {
	Labels Labels
	Value  int64
}

// setSource is one registered counter set.
type setSource struct {
	name   string
	help   string
	labels Labels // base labels, merged under each sample's own
	key    string // rendered base labels: upsert identity + sort key
	read   func() []Sample
}

// RegisterCounterSet registers (or replaces) a counter family whose
// sample labels are produced by the read closure at scrape time. The
// base labels identify the source (upsert key, like RegisterCounter);
// each sample's labels are merged on top. The closure must return a
// deterministic order for stable expositions, and runs on scrape
// goroutines only.
func (r *Registry) RegisterCounterSet(name, help string, labels Labels, read func() []Sample) {
	mustValidName(name)
	if read == nil {
		panic("registry: nil read closure for " + name)
	}
	s := &setSource{name: name, help: help, labels: labels, key: renderLabels(labels), read: read}
	r.mu.Lock()
	r.sets[s.name+s.key] = s
	r.mu.Unlock()
}

// setsSorted snapshots the set sources sorted by name then base labels,
// so each family's samples render consecutively across sources.
func (r *Registry) setsSorted() []*setSource {
	r.mu.RLock()
	out := make([]*setSource, 0, len(r.sets))
	for _, s := range r.sets {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].key < out[j].key
	})
	return out
}

// renderSample merges a sample's labels over the source's base labels
// and renders the canonical suffix.
func (s *setSource) renderSample(sample Sample) string {
	if len(sample.Labels) == 0 {
		return s.key
	}
	merged := make(Labels, len(s.labels)+len(sample.Labels))
	for k, v := range s.labels {
		merged[k] = v
	}
	for k, v := range sample.Labels {
		merged[k] = v
	}
	return renderLabels(merged)
}

// ConflictVar is one row of an engine's abort-attribution table: a
// named Var (or the "(unattributed)" residue), its attributed-abort
// count and the per-reason breakdown. Produced by
// stm.Engine.ConflictProfile; the type lives here so the introspection
// stack can consume it without importing stm.
type ConflictVar struct {
	Var      string           `json:"var"`
	Total    int64            `json:"aborts"`
	ByReason map[string]int64 `json:"by_reason,omitempty"`
}

// ConflictSource produces one engine's attribution table, ranked by
// total aborts descending, truncated to topK rows (<= 0 means all).
type ConflictSource func(topK int) []ConflictVar

// RegisterConflicts registers (or replaces) a conflict-table source
// under an engine name.
func (r *Registry) RegisterConflicts(source string, read ConflictSource) {
	if read == nil {
		panic("registry: nil conflict source " + source)
	}
	r.mu.Lock()
	r.conflicts[source] = read
	r.mu.Unlock()
}

// Conflicts returns every registered attribution table, keyed by engine
// name, each truncated to topK rows. Sources with no recorded activity
// are omitted.
func (r *Registry) Conflicts(topK int) map[string][]ConflictVar {
	r.mu.RLock()
	names := make([]string, 0, len(r.conflicts))
	srcs := make([]ConflictSource, 0, len(r.conflicts))
	for name, src := range r.conflicts {
		names = append(names, name)
		srcs = append(srcs, src)
	}
	r.mu.RUnlock()

	out := make(map[string][]ConflictVar)
	for i, fn := range srcs {
		if rows := fn(topK); len(rows) > 0 {
			out[names[i]] = rows
		}
	}
	return out
}
