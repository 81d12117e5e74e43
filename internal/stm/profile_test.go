package stm

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/obs/registry"
)

// Tests for the contention attribution layer (profile.go): overhead
// guards for the disabled path, deterministic conflict attribution, and
// the naming/labeling surface.

// withProfiling flips the process-wide gate for one test and restores
// the previous state afterwards (other tests in this package assert the
// zero-alloc fast path with the gate off).
func withProfiling(t *testing.T, on bool) {
	t.Helper()
	prev := ProfilingEnabled()
	SetProfiling(on)
	t.Cleanup(func() { SetProfiling(prev) })
}

// TestProfilingDisabledNoAllocCommit is the overhead guard for the hot
// path: with attribution off, a read-write transaction must not
// allocate at all — same bar as the tracer's TestTraceDisabledNoAlloc.
func TestProfilingDisabledNoAllocCommit(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates on the measured path")
	}
	withProfiling(t, false)
	e := NewEngine(Config{})
	v := NewVarNamed(e, "guard.v", 0)
	fn := func(tx *Tx) { Write(tx, v, Read(tx, v)+1) }
	if allocs := testing.AllocsPerRun(200, func() { e.MustAtomic(fn) }); allocs != 0 {
		t.Fatalf("commit path allocates %.1f/op with profiling disabled, want 0", allocs)
	}
}

// TestAbortPathAllocParity guards the enabled path: once the label
// cells are warm, recording an abort must not allocate — aborting with
// attribution on costs the same allocations as aborting with it off.
func TestAbortPathAllocParity(t *testing.T) {
	e := NewEngine(Config{})
	v := NewVarNamed(e, "guard.cancel", 0)
	cancelErr := errTestStm("abort-parity")
	abortOnce := func() {
		_ = e.Atomic(func(tx *Tx) {
			tx.SetLabel("parity-probe")
			Write(tx, v, 1)
			tx.Cancel(cancelErr)
		})
	}

	withProfiling(t, false)
	base := testing.AllocsPerRun(200, abortOnce)

	SetProfiling(true)
	abortOnce() // warm the "parity-probe" label cell
	enabled := testing.AllocsPerRun(200, abortOnce)

	if enabled > base {
		t.Fatalf("abort path allocates %.1f/op with profiling on vs %.1f/op off", enabled, base)
	}
}

// TestConflictAttributionDeterministic drives the snapshot-extension
// failure from TestExtensionFailureAborts with profiling on and asserts
// the abort lands in the attribution table: right Var, reason
// "conflict", encounter counted, transaction label recorded — and that
// SetLabel is first-wins.
func TestConflictAttributionDeterministic(t *testing.T) {
	withProfiling(t, true)
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
		tx.SetLabel("ext-probe")
		tx.SetLabel("second-label-must-lose")
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
	if hot.Encounters < 1 {
		t.Fatalf("hot.b encounters = %d, want >=1", hot.Encounters)
	}
	if len(hot.Labels) != 1 || hot.Labels[0].Label != "ext-probe" {
		t.Fatalf("hot.b labels = %+v, want exactly [ext-probe] (SetLabel is first-wins)", hot.Labels)
	}
	if hot.Labels[0].ByReason["conflict"] < 1 {
		t.Fatalf("ext-probe label reasons = %+v, want conflict >=1", hot.Labels[0].ByReason)
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

// TestVarNamingAndSiteFallback pins the display-name rules: explicit
// names win, Vars created under the gate fall back to their creation
// site, and SetName works after the fact.
func TestVarNamingAndSiteFallback(t *testing.T) {
	withProfiling(t, true)
	e := NewEngine(Config{})

	named := NewVarNamed(e, "explicit.name", 0)
	if got := named.Name(); got != "explicit.name" {
		t.Fatalf("Name() = %q", got)
	}

	anon := NewVar(e, 0) // site captured: this file, this line
	m := anon.base.meta.Load()
	if m == nil {
		t.Fatal("Var created under profiling has no meta")
	}
	if !strings.Contains(m.display(), "profile_test.go") {
		t.Fatalf("site fallback = %q, want a profile_test.go creation site", m.display())
	}
	// Name() documents the same fallback chain: explicit name, else site.
	if got := anon.Name(); got != m.display() {
		t.Fatalf("Name() = %q, want creation site %q", got, m.display())
	}

	anon.SetName("renamed.later")
	if got := anon.base.meta.Load().display(); got != "renamed.later" {
		t.Fatalf("display after SetName = %q", got)
	}
}

// TestUnattributedBucket: aborts with no conflicting Var identified
// (Cancel) land in the "(unattributed)" row rather than vanishing.
func TestUnattributedBucket(t *testing.T) {
	withProfiling(t, true)
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
	withProfiling(t, true)
	e := NewEngine(Config{})
	for i, n := range []int{5, 3, 1} {
		v := NewVarNamed(e, []string{"k.a", "k.b", "k.c"}[i], 0)
		for j := 0; j < n; j++ {
			e.recordAbort(causeConflict, &v.base, "")
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
	withProfiling(t, true)
	e := NewEngine(Config{Name: "pin", Algorithm: AlgWriteThrough})
	v := NewVarNamed(e, "pin.hot", 0)
	e.recordAbort(causeConflict, &v.base, "")
	e.recordAbort(causeRetry, &v.base, "")

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
