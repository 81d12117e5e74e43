package stm

import (
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/registry"
)

// Contention attribution (DESIGN.md §13): one reason-indexed abort
// counter row per named Var, plus an "(unattributed)" residue row. It
// answers the question the aggregate TMStats counters cannot — WHICH
// Var is responsible for the aborts — the per-source signal "On the
// Cost of Concurrency in Transactional Memory" (PAPERS.md) says
// determines when optimism stops paying.
//
// There is no switch. Every abort site stores the blamed Var in
// tx.conflictB (one plain pointer store), and Tx.rollback adds one to
// that Var's row — a path that is already tearing an attempt down. The
// read, write and commit paths never touch a row, and recording does
// not allocate (profile_test.go guards both).

// numAbortCauses is the size of the reason-indexed counter arrays
// (causeConflict..causeRetry).
const numAbortCauses = 5

// abortCauseNames maps a cause index to its exported reason label, in
// cause order.
var abortCauseNames = [numAbortCauses]string{
	"conflict", "capacity", "syscall", "cancel", "retry",
}

// varMeta is the attribution row of one named Var: its name and one
// abort counter per reason. It is attached to a varBase when the Var is
// named (NewVarNamed/SetName); aborts blamed on unnamed Vars, or on no
// Var at all, land in the engine's unattributed row.
type varMeta struct {
	// name is the explicit label; nil only for the unattributed row. An
	// atomic pointer so SetName is safe at any time, including on a Var
	// already shared between goroutines.
	name   atomic.Pointer[string]
	aborts [numAbortCauses]obs.Counter
}

// unattributedName is the display key of the residue row: aborts with
// no identified Var (injected at var-free hooks, Cancel/Retry) or
// blamed on an unnamed Var.
const unattributedName = "(unattributed)"

// display returns the row key: the explicit name, else the residue key.
func (m *varMeta) display() string {
	if p := m.name.Load(); p != nil {
		return *p
	}
	return unattributedName
}

// engineProfile holds an engine's attribution state: the named Vars'
// rows (for enumeration; appended under a mutex on the cold naming path
// only) and the unattributed row.
type engineProfile struct {
	mu    sync.Mutex
	metas []*varMeta

	unattributed varMeta
}

// snapshotMetas returns the current row list plus the unattributed row
// (always last).
func (p *engineProfile) snapshotMetas() []*varMeta {
	p.mu.Lock()
	out := make([]*varMeta, len(p.metas), len(p.metas)+1)
	copy(out, p.metas)
	p.mu.Unlock()
	return append(out, &p.unattributed)
}

// setName names b, attaching and registering its row on first use.
// Cold path: runs at naming time.
func (b *varBase) setName(name string) {
	if m := b.meta.Load(); m != nil {
		m.name.Store(&name)
		return
	}
	m := &varMeta{}
	m.name.Store(&name)
	if !b.meta.CompareAndSwap(nil, m) {
		b.meta.Load().name.Store(&name)
		return
	}
	p := &b.eng.prof
	p.mu.Lock()
	p.metas = append(p.metas, m)
	p.mu.Unlock()
}

// recordAbort attributes one rolled-back attempt to the blamed Var's row
// (b is nil when the abort site identified no Var). Called from
// Tx.rollback on every abort.
func (e *Engine) recordAbort(cause abortCause, b *varBase) {
	m := &e.prof.unattributed
	if b != nil {
		if bm := b.meta.Load(); bm != nil {
			m = bm
		}
	}
	m.aborts[cause].Inc()
}

// ConflictProfile returns the engine's abort-attribution table, rows
// merged by name (several Vars may share one — e.g. every pooled
// condvar node named "<cv>.node"), sorted by total aborts descending
// then name, truncated to topK rows (<= 0 means all). Rows with no
// aborts are omitted. The "(unattributed)" residue row always sorts
// last: it is a catch-all, and ranking it above real Vars would bury
// the actionable signal.
func (e *Engine) ConflictProfile(topK int) []registry.ConflictVar {
	byName := make(map[string]*registry.ConflictVar)
	order := []string{}
	for _, m := range e.prof.snapshotMetas() {
		var n [numAbortCauses]int64
		var total int64
		for i := range m.aborts {
			n[i] = m.aborts[i].Load()
			total += n[i]
		}
		if total == 0 {
			continue
		}
		name := m.display()
		row := byName[name]
		if row == nil {
			row = &registry.ConflictVar{Var: name, ByReason: make(map[string]int64)}
			byName[name] = row
			order = append(order, name)
		}
		row.Total += total
		for i, c := range n {
			if c > 0 {
				row.ByReason[abortCauseNames[i]] += c
			}
		}
	}
	out := make([]registry.ConflictVar, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	sort.Slice(out, func(i, j int) bool {
		iu, ju := out[i].Var == unattributedName, out[j].Var == unattributedName
		if iu != ju {
			return ju
		}
		if out[i].Total != out[j].Total {
			return out[i].Total > out[j].Total
		}
		return out[i].Var < out[j].Var
	})
	if topK > 0 && len(out) > topK {
		out = out[:topK]
	}
	return out
}

// conflictSamples renders the profile as registry samples for the
// stm_conflicts_total family: one sample per (var, reason) with a
// non-zero count. Runs at scrape time only.
func (e *Engine) conflictSamples() []registry.Sample {
	var out []registry.Sample
	for _, row := range e.ConflictProfile(0) {
		for _, reason := range abortCauseNames[:] {
			if n := row.ByReason[reason]; n > 0 {
				out = append(out, registry.Sample{
					Labels: registry.Labels{"var": row.Var, "reason": reason},
					Value:  n,
				})
			}
		}
	}
	return out
}
