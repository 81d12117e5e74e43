package registry

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
)

// Tests for the dynamic-label counter-set sources and the structured
// conflict tables (conflicts.go) — the registry half of the contention
// attribution pipeline.

func conflictFixture() *Registry {
	r := New()
	r.RegisterCounterSet("stm_conflicts_total", "aborts attributed per conflicting Var and abort reason",
		Labels{"engine": "chaos", "algorithm": "ml_wt"},
		func() []Sample {
			return []Sample{
				{Labels: Labels{"var": "taskq.items", "reason": "conflict"}, Value: 12},
				{Labels: Labels{"var": "taskq.items", "reason": "retry"}, Value: 2},
				{Labels: Labels{"var": "chaos.hot", "reason": "conflict"}, Value: 40},
			}
		})
	return r
}

// TestCounterSetExposition pins the rendered shape of a counter-set
// family: one header, every sample under it, base labels merged with
// per-sample labels in sorted order — and the result must satisfy the
// in-repo exposition validator.
func TestCounterSetExposition(t *testing.T) {
	var buf bytes.Buffer
	if err := conflictFixture().WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	got := buf.String()
	if err := ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition does not validate: %v\n%s", err, got)
	}
	if n := strings.Count(got, "# TYPE stm_conflicts_total counter"); n != 1 {
		t.Fatalf("family header appears %d times, want 1:\n%s", n, got)
	}
	for _, line := range []string{
		`stm_conflicts_total{algorithm="ml_wt",engine="chaos",reason="conflict",var="chaos.hot"} 40`,
		`stm_conflicts_total{algorithm="ml_wt",engine="chaos",reason="conflict",var="taskq.items"} 12`,
		`stm_conflicts_total{algorithm="ml_wt",engine="chaos",reason="retry",var="taskq.items"} 2`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing pinned line %q:\n%s", line, got)
		}
	}
}

// TestCounterSetEmptySkipped: a set source currently returning no
// samples renders nothing (not even a header).
func TestCounterSetEmptySkipped(t *testing.T) {
	r := New()
	r.RegisterCounterSet("quiet_total", "", nil, func() []Sample { return nil })
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 0 {
		t.Fatalf("empty set rendered output:\n%s", buf.String())
	}
}

// TestCounterSetUpsertAndVars: re-registering under the same base key
// replaces the source and Vars includes the samples.
func TestCounterSetUpsertAndVars(t *testing.T) {
	r := New()
	base := Labels{"engine": "e1"}
	r.RegisterCounterSet("s_total", "", base, func() []Sample {
		return []Sample{{Labels: Labels{"var": "a"}, Value: 1}}
	})
	r.RegisterCounterSet("s_total", "", base, func() []Sample {
		return []Sample{{Labels: Labels{"var": "a"}, Value: 9}}
	})
	vars := r.Vars()
	if got := vars[`s_total{engine="e1",var="a"}`]; got != int64(9) {
		t.Fatalf("upsert kept stale closure: vars = %v", vars)
	}
}

// TestConflictsTables: registered conflict sources are queried with the
// requested topK and empty tables are omitted.
func TestConflictsTables(t *testing.T) {
	r := New()
	var gotK int
	r.RegisterConflicts("busy", func(topK int) []ConflictVar {
		gotK = topK
		return []ConflictVar{{Var: "q.items", Total: 3}}
	})
	r.RegisterConflicts("idle", func(topK int) []ConflictVar { return nil })
	tables := r.Conflicts(7)
	if gotK != 7 {
		t.Fatalf("topK = %d, want 7", gotK)
	}
	if len(tables) != 1 || len(tables["busy"]) != 1 || tables["busy"][0].Var != "q.items" {
		t.Fatalf("tables = %+v", tables)
	}
}

// TestConflictsInSnapshot: conflict tables ride into TakeSnapshot (and
// therefore into flight-recorder dumps).
func TestConflictsInSnapshot(t *testing.T) {
	r := conflictFixture()
	r.RegisterConflicts("chaos", func(topK int) []ConflictVar {
		return []ConflictVar{{Var: "chaos.hot", Total: 40, ByReason: map[string]int64{"conflict": 40}}}
	})
	snap := r.TakeSnapshot()
	if len(snap.Conflicts["chaos"]) != 1 || snap.Conflicts["chaos"][0].Var != "chaos.hot" {
		t.Fatalf("snapshot conflicts = %+v", snap.Conflicts)
	}
	if snap.Scalars[`stm_conflicts_total{algorithm="ml_wt",engine="chaos",reason="conflict",var="chaos.hot"}`] != int64(40) {
		t.Fatalf("snapshot scalars missing set samples: %v", snap.Scalars)
	}
}

// TestConcurrentUpsertAndScrape hammers re-registration and every
// scrape surface at once — the writer race test the -race
// gate runs. Failures here are data races or panics, not assertions.
func TestConcurrentUpsertAndScrape(t *testing.T) {
	r := New()
	const writers, scrapes = 4, 4
	// One source before any scraper starts: the validator rejects an
	// exposition with no samples, which a scrape that beat every writer's
	// first registration would otherwise produce.
	r.RegisterCounter("race_commits_total", "", Labels{"engine": "e0"}, func() int64 { return 0 })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			base := Labels{"engine": fmt.Sprintf("e%d", w)}
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				v := int64(i)
				r.RegisterCounterSet("race_total", "", base, func() []Sample {
					return []Sample{{Labels: Labels{"var": "x", "reason": "conflict"}, Value: v}}
				})
				r.RegisterConflicts(base["engine"], func(topK int) []ConflictVar {
					return []ConflictVar{{Var: "x", Total: v}}
				})
				r.RegisterCounter("race_commits_total", "", base, func() int64 { return v })
			}
		}()
	}
	for s := 0; s < scrapes; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf bytes.Buffer
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				buf.Reset()
				if err := r.WriteProm(&buf); err != nil {
					t.Errorf("WriteProm: %v", err)
					return
				}
				if err := ValidateExposition(buf.Bytes()); err != nil {
					t.Errorf("concurrent exposition invalid: %v\n%s", err, buf.String())
					return
				}
				_ = r.Vars()
				_ = r.Conflicts(4)
				_ = r.TakeSnapshot()
			}
		}()
	}
	for i := 0; i < 200; i++ {
		_ = r.Vars()
	}
	close(stop)
	wg.Wait()
}
