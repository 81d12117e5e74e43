// Package registry is the process-wide metric registry behind the live
// introspection stack (DESIGN.md §10). Sources — stm.TMStats counters
// and histograms, condvar queue-depth gauges, sem park histograms, fault
// injector counters — register a read
// closure once at construction; scrapes pull through the closures on
// demand. The hot path never touches the registry: instruments stay
// plain atomics, and registration only stores a func pointer in a map
// that is walked when somebody asks (/debug/cv/metrics, cvtop, a
// flight-recorder dump).
//
// Re-registering under the same name and label set replaces the source
// (upsert). Harness trials that rebuild their engines each run simply
// overwrite the previous trial's closures, so a long-lived registry
// always reflects the current incarnation instead of accumulating dead
// sources.
package registry

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Labels is a set of Prometheus-style key/value labels attached to a
// source. Label names must match [a-zA-Z_][a-zA-Z0-9_]*.
type Labels map[string]string

// Kind distinguishes the scalar source types for the TYPE line of the
// Prometheus exposition.
type Kind uint8

const (
	// KindCounter is a monotonically increasing scalar.
	KindCounter Kind = iota
	// KindGauge is a scalar that moves both ways.
	KindGauge
)

func (k Kind) String() string {
	if k == KindCounter {
		return "counter"
	}
	return "gauge"
}

// scalarSource is one registered counter or gauge.
type scalarSource struct {
	name   string
	help   string
	labels string // rendered {k="v",...} suffix, "" when unlabeled
	kind   Kind
	read   func() int64
}

// histSource is one registered histogram.
type histSource struct {
	name   string
	help   string
	labels string
	read   func() obs.HistogramSnapshot
}

// Waiter is one entry of a live wait-chain dump: a condvar queue slot
// and how long its owner has been there. ParkAgeNS is -1 while the
// waiter is published in the queue but not yet descheduled in its
// semaphore — the paper's lost-wakeup window, visible as such.
type Waiter struct {
	Source       string `json:"source"`
	Node         uint64 `json:"node"`
	EnqueueAgeNS int64  `json:"enqueue_age_ns"`
	ParkAgeNS    int64  `json:"park_age_ns"`
}

// WaiterSource produces the current wait chain of one condvar.
type WaiterSource func() []Waiter

// Registry is a pull-model metric registry. All methods are safe for
// concurrent use; reads (WriteProm, Vars, Waiters, Snapshot) call the
// registered closures outside the registry lock's critical work, but a
// closure must itself be safe to call from any goroutine.
type Registry struct {
	mu        sync.RWMutex
	scalars   map[string]*scalarSource
	hists     map[string]*histSource
	sets      map[string]*setSource
	waiters   map[string]WaiterSource
	conflicts map[string]ConflictSource
	tracer    *obs.Tracer
}

// Default is the process-wide registry commands register into when they
// do not need isolation. Tests should prefer New.
var Default = New()

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		scalars:   make(map[string]*scalarSource),
		hists:     make(map[string]*histSource),
		sets:      make(map[string]*setSource),
		waiters:   make(map[string]WaiterSource),
		conflicts: make(map[string]ConflictSource),
	}
}

// RegisterCounter registers (or replaces) a counter source.
func (r *Registry) RegisterCounter(name, help string, labels Labels, read func() int64) {
	r.registerScalar(name, help, labels, KindCounter, read)
}

// RegisterGauge registers (or replaces) a gauge source.
func (r *Registry) RegisterGauge(name, help string, labels Labels, read func() int64) {
	r.registerScalar(name, help, labels, KindGauge, read)
}

func (r *Registry) registerScalar(name, help string, labels Labels, kind Kind, read func() int64) {
	mustValidName(name)
	if read == nil {
		panic("registry: nil read closure for " + name)
	}
	s := &scalarSource{name: name, help: help, labels: renderLabels(labels), kind: kind, read: read}
	r.mu.Lock()
	r.scalars[s.name+s.labels] = s
	r.mu.Unlock()
}

// RegisterHistogram registers (or replaces) a histogram source reading
// an obs.Histogram snapshot.
func (r *Registry) RegisterHistogram(name, help string, labels Labels, read func() obs.HistogramSnapshot) {
	mustValidName(name)
	if read == nil {
		panic("registry: nil read closure for " + name)
	}
	h := &histSource{name: name, help: help, labels: renderLabels(labels), read: read}
	r.mu.Lock()
	r.hists[h.name+h.labels] = h
	r.mu.Unlock()
}

// RegisterWaiters registers (or replaces) a wait-chain source under a
// condvar name. The closure runs on scrape goroutines; it must be safe
// to call concurrently with waiters and notifiers.
func (r *Registry) RegisterWaiters(source string, read WaiterSource) {
	if read == nil {
		panic("registry: nil waiter source " + source)
	}
	r.mu.Lock()
	r.waiters[source] = read
	r.mu.Unlock()
}

// Unregister removes the scalar or histogram registered under name and
// labels, if any.
func (r *Registry) Unregister(name string, labels Labels) {
	key := name + renderLabels(labels)
	r.mu.Lock()
	delete(r.scalars, key)
	delete(r.hists, key)
	r.mu.Unlock()
}

// SetTracer attaches the tracer /debug/cv/trace drains and the flight
// recorder snapshots; pass nil to detach.
func (r *Registry) SetTracer(tr *obs.Tracer) {
	r.mu.Lock()
	r.tracer = tr
	r.mu.Unlock()
}

// Tracer returns the attached tracer (nil when detached).
func (r *Registry) Tracer() *obs.Tracer {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.tracer
}

// Waiters returns every registered wait chain, flattened, with each
// entry's Source set to its condvar name, sorted by source. The chains
// are read live: entries may be momentarily stale, which is fine for
// diagnostics (ages are clamped non-negative at the producers).
func (r *Registry) Waiters() []Waiter {
	r.mu.RLock()
	names := make([]string, 0, len(r.waiters))
	srcs := make([]WaiterSource, 0, len(r.waiters))
	for name := range r.waiters {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		srcs = append(srcs, r.waiters[name])
	}
	r.mu.RUnlock()

	var out []Waiter
	for i, fn := range srcs {
		for _, w := range fn() {
			if w.Source == "" {
				w.Source = names[i]
			}
			out = append(out, w)
		}
	}
	return out
}

// scalarsSorted snapshots the scalar sources sorted by name then labels
// (the exposition order: one family's samples must be consecutive).
func (r *Registry) scalarsSorted() []*scalarSource {
	r.mu.RLock()
	out := make([]*scalarSource, 0, len(r.scalars))
	for _, s := range r.scalars {
		out = append(out, s)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

func (r *Registry) histsSorted() []*histSource {
	r.mu.RLock()
	out := make([]*histSource, 0, len(r.hists))
	for _, h := range r.hists {
		out = append(out, h)
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].name != out[j].name {
			return out[i].name < out[j].name
		}
		return out[i].labels < out[j].labels
	})
	return out
}

// mustValidName panics on a metric name outside the Prometheus grammar
// — registration happens at construction time, so this is a programmer
// error, not an operational one.
func mustValidName(name string) {
	if !validMetricName(name) {
		panic(fmt.Sprintf("registry: invalid metric name %q", name))
	}
}

func validMetricName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

func validLabelName(name string) bool {
	if name == "" {
		return false
	}
	for i, c := range name {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_':
		case c >= '0' && c <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels renders a label set as the canonical `{k="v",...}`
// suffix with keys sorted, or "" for an empty set. The rendered form is
// both the map key (upsert identity) and the exposition text.
func renderLabels(labels Labels) string {
	if len(labels) == 0 {
		return ""
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !validLabelName(k) {
			panic(fmt.Sprintf("registry: invalid label name %q", k))
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(labels[k]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// withExtraLabel re-renders a label suffix with one more pair — the
// histogram writer uses it to splice `le` into a source's label set.
func withExtraLabel(rendered, key, value string) string {
	pair := key + `="` + escapeLabelValue(value) + `"`
	if rendered == "" {
		return "{" + pair + "}"
	}
	return rendered[:len(rendered)-1] + "," + pair + "}"
}

// escapeLabelValue escapes a label value per the exposition format:
// backslash, double quote and newline.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, c := range v {
		switch c {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(c)
		}
	}
	return b.String()
}

// escapeHelp escapes a HELP text: backslash and newline only (quotes are
// legal there).
func escapeHelp(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	return strings.ReplaceAll(v, "\n", `\n`)
}
