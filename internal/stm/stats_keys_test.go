package stm

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/obs/registry"
)

// The metrics-export contract: Snapshot()/Histograms() keys must be
// STABLE (dashboards and the results JSON key on them) and COMPLETE
// (every instrument field of TMStats appears; a struct that grows
// without growing Snapshot leaves the new counter dark). Completeness
// is pinned by reflection over the struct; stability by a golden key
// list.

// snapshotKeys is the frozen key set. Adding an instrument to TMStats
// requires a row in the introspect.go table AND a key here — a
// deliberate two-touch change.
var snapshotKeys = []string{
	"aborts", "capacity_aborts", "commits", "conflict_aborts",
	"early_commits", "explicit_aborts", "extensions",
	"relaxed_txns", "retry_aborts", "retry_waits", "retry_wakes",
	"serial_commits", "serial_fallback", "syscall_aborts",
}

var histogramKeys = []string{"commit_ns"}

// countFieldsOfType walks TMStats and counts fields whose type name is
// one of the instrument types.
func countFieldsOfType(t *testing.T, typeNames ...string) int {
	t.Helper()
	want := make(map[string]bool, len(typeNames))
	for _, n := range typeNames {
		want[n] = true
	}
	n := 0
	typ := reflect.TypeOf(TMStats{})
	for i := 0; i < typ.NumField(); i++ {
		if want[typ.Field(i).Type.String()] {
			n++
		}
	}
	return n
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func TestTMStatsSnapshotStableAndComplete(t *testing.T) {
	var s TMStats
	snap := s.Snapshot()

	if got, want := sortedKeys(snap), snapshotKeys; !reflect.DeepEqual(got, want) {
		t.Errorf("Snapshot keys drifted:\n got  %v\n want %v", got, want)
	}
	if got, want := len(snap), countFieldsOfType(t, "obs.Counter", "stm.SlotCounter"); got != want {
		t.Errorf("Snapshot has %d keys but TMStats has %d scalar instrument fields — a field is missing from the introspect.go table", got, want)
	}

	hist := s.Histograms()
	if got, want := sortedKeys(hist), histogramKeys; !reflect.DeepEqual(got, want) {
		t.Errorf("Histograms keys drifted:\n got  %v\n want %v", got, want)
	}
	if got, want := len(hist), countFieldsOfType(t, "obs.Histogram"); got != want {
		t.Errorf("Histograms has %d keys but TMStats has %d histogram fields", got, want)
	}
}

// TestRegisterMetricsMirrorsSnapshot pins the tentpole's same-key-set
// property end to end: everything Snapshot/Histograms export shows up
// in a registry scrape under the stm_ prefix, with the engine label.
func TestRegisterMetricsMirrorsSnapshot(t *testing.T) {
	e := NewEngine(Config{Name: "keys-test"})
	r := registry.New()
	e.RegisterMetrics(r)

	v := NewVar(e, 0)
	e.MustAtomic(func(tx *Tx) { Write(tx, v, 1) })

	vars := r.Vars()
	find := func(name string) (any, bool) {
		got, ok := vars[name+`{algorithm="ml_wt",engine="keys-test"}`]
		return got, ok
	}
	for _, k := range snapshotKeys {
		name := "stm_" + k + "_total"
		if _, ok := find(name); !ok {
			t.Errorf("registry missing %s for snapshot key %q", name, k)
		}
	}
	for _, k := range histogramKeys {
		if _, ok := find("stm_" + k); !ok {
			t.Errorf("registry missing histogram stm_%s", k)
		}
	}
	if got, _ := find("stm_commits_total"); got != int64(1) {
		t.Errorf("registered commit counter reads %v, want 1", got)
	}
}
