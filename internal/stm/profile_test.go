package stm

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs/registry"
)

// Tests for the contention attribution layer (profile.go): overhead
// guards for the commit and abort paths, deterministic conflict
// attribution on a fresh engine (attribution is always on), and the
// naming surface.

// TestNamedVarCommitNoAlloc is the overhead guard for the hot path: a
// read-write transaction on a named Var must not allocate at all — same
// bar as the tracer's TestTraceDisabledNoAlloc.
func TestNamedVarCommitNoAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	e := NewEngine(Config{})
	v := NewVarNamed(e, "guard.v", 0)
	fn := func(tx *Tx) { Write(tx, v, Read(tx, v)+1) }
	if allocs := testing.AllocsPerRun(200, func() { e.MustAtomic(fn) }); allocs != 0 {
		t.Fatalf("commit path allocates %.1f/op, want 0", allocs)
	}
}

// TestRecordAbortNoAlloc guards the abort path: recording an abort,
// whether blamed on a named Var or on no Var, never allocates.
func TestRecordAbortNoAlloc(t *testing.T) {
	e := NewEngine(Config{})
	v := NewVarNamed(e, "guard.abort", 0)
	for name, b := range map[string]*varBase{"named Var": &v.base, "nil": nil} {
		if allocs := testing.AllocsPerRun(200, func() { e.recordAbort(causeConflict, b) }); allocs != 0 {
			t.Fatalf("recordAbort on %s allocates %.1f/op, want 0", name, allocs)
		}
	}
}

// TestConflictAttributionDeterministic drives the snapshot-extension
// failure from TestExtensionFailureAborts on a fresh engine, with no
// setup, and asserts the abort lands in the attribution table: right
// Var, reason "conflict".
func TestConflictAttributionDeterministic(t *testing.T) {
	e := NewEngine(Config{OrecCount: 1 << 16})
	x := NewVarNamed(e, "hot.x", 1)
	b := NewVarNamed(e, "hot.b", 0)
	step := make(chan struct{})
	go func() {
		<-step
		e.MustAtomic(func(tx *Tx) {
			Write(tx, x, 2)
			Write(tx, b, 5)
		})
		step <- struct{}{}
	}()
	attempts := 0
	e.MustAtomic(func(tx *Tx) {
		attempts++
		_ = Read(tx, x)
		if attempts == 1 {
			step <- struct{}{}
			<-step
		}
		Write(tx, b, Read(tx, b)+1)
	})
	if attempts != 2 {
		t.Fatalf("attempts = %d, want 2", attempts)
	}

	rows := e.ConflictProfile(0)
	var hot *registry.ConflictVar
	for i := range rows {
		if rows[i].Var == "hot.b" {
			hot = &rows[i]
		}
	}
	if hot == nil {
		t.Fatalf("no attribution row for hot.b; rows = %+v", rows)
	}
	if hot.Total < 1 || hot.ByReason["conflict"] < 1 {
		t.Fatalf("hot.b row = %+v, want >=1 conflict abort", *hot)
	}

	// The scrape shape: one sample per (var, reason).
	found := false
	for _, s := range e.conflictSamples() {
		if s.Labels["var"] == "hot.b" && s.Labels["reason"] == "conflict" && s.Value >= 1 {
			found = true
		}
	}
	if !found {
		t.Fatal("conflictSamples missing {var=hot.b,reason=conflict}")
	}
}

// TestVarNaming pins the naming rules: an explicit name sticks, SetName
// works after the fact, and an unnamed Var has no name and its aborts
// land in the "(unattributed)" row.
func TestVarNaming(t *testing.T) {
	e := NewEngine(Config{})

	named := NewVarNamed(e, "explicit.name", 0)
	if got := named.Name(); got != "explicit.name" {
		t.Fatalf("Name() = %q", got)
	}

	anon := NewVar(e, 0)
	if got := anon.Name(); got != "" {
		t.Fatalf("unnamed Name() = %q, want \"\"", got)
	}
	e.recordAbort(causeConflict, &anon.base)
	rows := e.ConflictProfile(0)
	if len(rows) != 1 || rows[0].Var != "(unattributed)" || rows[0].ByReason["conflict"] != 1 {
		t.Fatalf("rows after an unnamed Var's abort = %+v, want one (unattributed) conflict", rows)
	}

	anon.SetName("renamed.later")
	if got := anon.Name(); got != "renamed.later" {
		t.Fatalf("Name() after SetName = %q", got)
	}
	e.recordAbort(causeConflict, &anon.base)
	rows = e.ConflictProfile(0)
	if len(rows) != 2 || rows[0].Var != "renamed.later" || rows[0].Total != 1 {
		t.Fatalf("rows after SetName = %+v, want renamed.later first with 1 abort", rows)
	}
}

// TestUnattributedBucket: aborts with no conflicting Var identified
// (Cancel) land in the "(unattributed)" row rather than vanishing.
func TestUnattributedBucket(t *testing.T) {
	e := NewEngine(Config{})
	v := NewVarNamed(e, "bucket.v", 0)
	_ = e.Atomic(func(tx *Tx) {
		Write(tx, v, 1)
		tx.Cancel(errTestStm("x"))
	})
	for _, row := range e.ConflictProfile(0) {
		if row.Var == "(unattributed)" && row.ByReason["cancel"] >= 1 {
			return
		}
	}
	t.Fatal("cancel abort not recorded in the unattributed bucket")
}

// TestProfileTopKTruncates: topK bounds the table, hottest rows first.
func TestProfileTopKTruncates(t *testing.T) {
	e := NewEngine(Config{})
	for i, n := range []int{5, 3, 1} {
		v := NewVarNamed(e, []string{"k.a", "k.b", "k.c"}[i], 0)
		for j := 0; j < n; j++ {
			e.recordAbort(causeConflict, &v.base)
		}
	}
	rows := e.ConflictProfile(2)
	if len(rows) != 2 || rows[0].Var != "k.a" || rows[1].Var != "k.b" {
		t.Fatalf("topK=2 rows = %+v, want [k.a k.b]", rows)
	}
}

// TestConflictFamilyExposition pins the scrape contract end-to-end: a
// real engine registered into a registry must expose the
// stm_conflicts_total family with exactly the documented labels
// (algorithm, engine, reason, var), and the body must satisfy the
// in-repo exposition validator.
func TestConflictFamilyExposition(t *testing.T) {
	e := NewEngine(Config{Name: "pin", Algorithm: AlgWriteThrough})
	v := NewVarNamed(e, "pin.hot", 0)
	e.recordAbort(causeConflict, &v.base)
	e.recordAbort(causeRetry, &v.base)

	r := registry.New()
	e.RegisterMetrics(r)
	var buf bytes.Buffer
	if err := r.WriteProm(&buf); err != nil {
		t.Fatalf("WriteProm: %v", err)
	}
	if err := registry.ValidateExposition(buf.Bytes()); err != nil {
		t.Fatalf("exposition invalid: %v\n%s", err, buf.String())
	}
	got := buf.String()
	for _, line := range []string{
		`stm_conflicts_total{algorithm="ml_wt",engine="pin",reason="conflict",var="pin.hot"} 1`,
		`stm_conflicts_total{algorithm="ml_wt",engine="pin",reason="retry",var="pin.hot"} 1`,
	} {
		if !strings.Contains(got, line+"\n") {
			t.Errorf("exposition missing pinned line %q:\n%s", line, got)
		}
	}
	if n := strings.Count(got, "# TYPE stm_conflicts_total counter"); n != 1 {
		t.Errorf("stm_conflicts_total header appears %d times, want 1", n)
	}
}
