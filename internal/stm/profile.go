package stm

import (
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
	"repro/internal/obs/registry"
)

// Contention attribution (DESIGN.md §13): per-Var conflict counters and
// the abort-attribution table (abort reason × conflicting Var ×
// transaction label). The layer answers the question the aggregate
// TMStats counters cannot — WHICH Var, and which transaction site, is
// responsible for the aborts — the per-source signal "On the Cost of
// Concurrency in Transactional Memory" (PAPERS.md) says determines when
// optimism stops paying.
//
// Cost discipline, following the tracer's (obs/trace.go):
//
//   - Disabled (the default): the transactional fast path is untouched.
//     The only added work sits on paths that were already aborting or
//     re-validating — one atomic gate load — plus one plain pointer
//     store per abort site. Nothing allocates (profile_test.go guards).
//   - Enabled: recording happens in rollback (outside transaction
//     bodies, after the attempt is already torn down) against per-Var
//     counter cells. There is no global table and no lock on the record
//     path: the "sharding" is structural — every Var carries its own
//     reason-indexed obs.Counter array, and per-label cells live in a
//     per-Var sync.Map, so concurrent aborts on different Vars (or
//     different labels of one Var) never contend on shared cache lines.
//     The steady-state record path is lock-free and allocation-free;
//     only the first abort under a new label allocates its cell.

// profiling is the one-atomic-load gate for the whole attribution
// layer, mirroring obs.SetParkLabels. Creation-site capture, encounter
// counting and abort recording all check it; Var names set explicitly
// via NewVarNamed/SetName stick regardless, so a profile enabled later
// still shows names.
var profiling atomic.Bool

// SetProfiling enables or disables contention attribution process-wide.
func SetProfiling(on bool) { profiling.Store(on) }

// ProfilingEnabled reports whether contention attribution is on.
func ProfilingEnabled() bool { return profiling.Load() }

// numAbortCauses is the size of the reason-indexed counter arrays
// (causeConflict..causeRetry).
const numAbortCauses = 5

// abortCauseNames maps a cause index to its exported reason label, in
// cause order.
var abortCauseNames = [numAbortCauses]string{
	"conflict", "capacity", "syscall", "cancel", "retry",
}

// labelCell is the per-(Var, transaction-label) slice of the
// attribution table: one counter per abort reason.
type labelCell struct {
	aborts [numAbortCauses]obs.Counter
}

// varMeta is the attribution identity and counters of one Var. It is
// attached to a varBase when the Var is named (always) or created while
// profiling is on (creation-site fallback); Vars without a meta
// aggregate into the engine profile's unattributed bucket.
type varMeta struct {
	// name is the explicit label (NewVarNamed/SetName); nil until set.
	// An atomic pointer so SetName is safe at any time, including on a
	// Var already shared between goroutines.
	name atomic.Pointer[string]
	// site is the creation site ("pkg/file.go:123"), captured only when
	// the Var was created while profiling was enabled.
	site string

	// encounters counts conflict *sightings* on this Var's orec —
	// locked-orec hits and version-ahead revalidations — including ones
	// a successful snapshot extension survives. aborts counts attempts
	// actually torn down with this Var identified as the conflictor.
	encounters obs.Counter
	aborts     [numAbortCauses]obs.Counter

	// labels maps transaction label → *labelCell. Populated lazily on
	// the first abort under each label; reads on the steady-state
	// record path are lock-free sync.Map loads.
	labels sync.Map
}

// unattributedName is the display key of the residue bucket: aborts
// with no identified Var (injected at var-free hooks, Cancel/Retry,
// Vars created before profiling was enabled).
const unattributedName = "(unattributed)"

// display returns the attribution key: the explicit name, else the
// creation site, else the unattributed residue key.
func (m *varMeta) display() string {
	if p := m.name.Load(); p != nil {
		return *p
	}
	if m.site != "" {
		return m.site
	}
	return unattributedName
}

// setName sets the explicit name.
func (m *varMeta) setName(name string) { m.name.Store(&name) }

// cell returns the counter cell for label, allocating on first use.
func (m *varMeta) cell(label string) *labelCell {
	if c, ok := m.labels.Load(label); ok {
		return c.(*labelCell)
	}
	c, _ := m.labels.LoadOrStore(label, new(labelCell))
	return c.(*labelCell)
}

// totalAborts sums the reason-indexed abort counters.
func (m *varMeta) totalAborts() int64 {
	var t int64
	for i := range m.aborts {
		t += m.aborts[i].Load()
	}
	return t
}

// engineProfile holds an engine's attribution state: the registry of
// metas (for enumeration; appended under a mutex on the cold creation
// path only) and the fallback bucket for aborts whose conflicting Var
// is unknown or unnamed (injected aborts, Cancel/Retry, Vars created
// before profiling was enabled).
type engineProfile struct {
	mu    sync.Mutex
	metas []*varMeta

	unattributed varMeta
}

func (p *engineProfile) add(m *varMeta) {
	p.mu.Lock()
	p.metas = append(p.metas, m)
	p.mu.Unlock()
}

// snapshotMetas returns the current meta list plus the unattributed
// bucket (always last).
func (p *engineProfile) snapshotMetas() []*varMeta {
	p.mu.Lock()
	out := make([]*varMeta, len(p.metas), len(p.metas)+1)
	copy(out, p.metas)
	p.mu.Unlock()
	return append(out, &p.unattributed)
}

// ensureMeta attaches (or returns) b's meta, registering it with the
// owning engine's profile. Cold path: runs at naming/creation time.
func (b *varBase) ensureMeta() *varMeta {
	if m := b.meta.Load(); m != nil {
		return m
	}
	m := &varMeta{}
	if b.meta.CompareAndSwap(nil, m) {
		b.eng.prof.add(m)
		return m
	}
	return b.meta.Load()
}

// attachSiteMeta captures the creation site skip frames above the
// caller and attaches a meta carrying it. Called from NewVar /
// NewVarNamed only while profiling is enabled.
func (b *varBase) attachSiteMeta(skip int) {
	m := b.ensureMeta()
	if m.site == "" {
		if _, file, line, ok := runtime.Caller(skip); ok {
			m.site = trimSite(file) + ":" + strconv.Itoa(line)
		}
	}
}

// trimSite keeps the last two path components of a source file, enough
// to identify "facility/pool.go" without the build-machine prefix.
func trimSite(file string) string {
	i := strings.LastIndexByte(file, '/')
	if i < 0 {
		return file
	}
	if j := strings.LastIndexByte(file[:i], '/'); j >= 0 {
		return file[j+1:]
	}
	return file
}

// noteEncounter counts a conflict sighting on b's orec. Callers sit on
// paths that are already off the conflict-free fast path (locked orec,
// version-ahead revalidation), so the disabled cost is the gate load.
func (b *varBase) noteEncounter() {
	if !profiling.Load() {
		return
	}
	if m := b.meta.Load(); m != nil {
		m.encounters.Inc()
	}
}

// recordAbort attributes one rolled-back attempt: reason × conflicting
// Var × transaction label. Called from Tx.rollback only while the gate
// is on; b is the varBase blamed by the abort site (nil when no
// specific Var was identified).
func (e *Engine) recordAbort(cause abortCause, b *varBase, label string) {
	m := &e.prof.unattributed
	if b != nil {
		if bm := b.meta.Load(); bm != nil {
			m = bm
		}
	}
	i := int(cause)
	if i < 0 || i >= numAbortCauses {
		i = int(causeConflict)
	}
	m.aborts[i].Inc()
	if label != "" {
		m.cell(label).aborts[i].Inc()
	}
}

// ConflictProfile returns the engine's abort-attribution table, rows
// merged by display name (several Vars may share one — e.g. every
// pooled condvar node named "<cv>.node"), sorted by total aborts
// descending then name, truncated to topK rows (<= 0 means all). Rows
// with no recorded activity are omitted. The "(unattributed)" residue
// bucket always sorts last: it is a catch-all, and ranking it above
// real Vars would bury the actionable signal.
func (e *Engine) ConflictProfile(topK int) []registry.ConflictVar {
	byName := make(map[string]*registry.ConflictVar)
	order := []string{}
	for _, m := range e.prof.snapshotMetas() {
		total := m.totalAborts()
		enc := m.encounters.Load()
		if total == 0 && enc == 0 {
			continue
		}
		name := m.display()
		row := byName[name]
		if row == nil {
			row = &registry.ConflictVar{Var: name, Site: m.site}
			byName[name] = row
			order = append(order, name)
		}
		row.Encounters += enc
		row.Total += total
		for i := range m.aborts {
			if n := m.aborts[i].Load(); n > 0 {
				if row.ByReason == nil {
					row.ByReason = make(map[string]int64)
				}
				row.ByReason[abortCauseNames[i]] += n
			}
		}
		m.labels.Range(func(k, v any) bool {
			cell := v.(*labelCell)
			var lt int64
			br := make(map[string]int64)
			for i := range cell.aborts {
				if n := cell.aborts[i].Load(); n > 0 {
					lt += n
					br[abortCauseNames[i]] = n
				}
			}
			if lt > 0 {
				row.Labels = mergeLabel(row.Labels, k.(string), lt, br)
			}
			return true
		})
	}
	out := make([]registry.ConflictVar, 0, len(order))
	for _, name := range order {
		row := byName[name]
		sort.Slice(row.Labels, func(i, j int) bool {
			if row.Labels[i].Total != row.Labels[j].Total {
				return row.Labels[i].Total > row.Labels[j].Total
			}
			return row.Labels[i].Label < row.Labels[j].Label
		})
		out = append(out, *row)
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

// mergeLabel accumulates one label's counts into a row's label list.
func mergeLabel(ls []registry.ConflictLabel, label string, total int64, byReason map[string]int64) []registry.ConflictLabel {
	for i := range ls {
		if ls[i].Label == label {
			ls[i].Total += total
			for k, v := range byReason {
				if ls[i].ByReason == nil {
					ls[i].ByReason = make(map[string]int64)
				}
				ls[i].ByReason[k] += v
			}
			return ls
		}
	}
	return append(ls, registry.ConflictLabel{Label: label, Total: total, ByReason: byReason})
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
