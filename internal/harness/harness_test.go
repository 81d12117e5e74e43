package harness

import (
	"strings"
	"testing"
	"time"

	"repro/internal/facility"
	"repro/internal/parsec"
)

// fastBench is a synthetic Benchmark so harness tests don't pay for real
// workloads.
type fastBench struct {
	name string
	durs map[facility.Kind]time.Duration
}

func (f *fastBench) Name() string { return f.name }

func (f *fastBench) Threads(max int) []int {
	out := []int{1}
	if max >= 2 {
		out = append(out, 2)
	}
	return out
}

func (f *fastBench) Profile() parsec.SyncProfile {
	return parsec.SyncProfile{Name: f.name, TotalTransactions: 1, CondVarTxns: 1}
}

func (f *fastBench) Run(cfg parsec.Config) parsec.Result {
	d := f.durs[cfg.System]
	// Busy-spin so Elapsed is real but tiny.
	start := time.Now()
	for time.Since(start) < d {
	}
	return parsec.Result{Elapsed: d, Checksum: 42}
}

func newFastSweep(t *testing.T) *Sweep {
	t.Helper()
	b := &fastBench{
		name: "fast",
		durs: map[facility.Kind]time.Duration{
			facility.LockPthread: 4 * time.Millisecond,
			facility.LockTM:      4 * time.Millisecond,
			facility.Txn:         8 * time.Millisecond,
		},
	}
	return Run(SweepConfig{
		Benchmarks: []parsec.Benchmark{b},
		MaxThreads: 2,
		Trials:     2,
		Scale:      0.1,
	})
}

func TestSweepGrid(t *testing.T) {
	sw := newFastSweep(t)
	// 1 bench × 3 systems × 2 thread counts.
	if got := len(sw.Cells); got != 6 {
		t.Fatalf("cells = %d, want 6", got)
	}
	for _, c := range sw.Cells {
		if c.Mean <= 0 {
			t.Fatalf("cell %+v has non-positive mean", c)
		}
		if c.Checksum != 42 {
			t.Fatalf("cell checksum = %d", c.Checksum)
		}
		if c.Min > c.Mean || c.Mean > c.Max {
			t.Fatalf("min/mean/max ordering broken: %v/%v/%v", c.Min, c.Mean, c.Max)
		}
	}
}

func TestSpeedupsAndGeomean(t *testing.T) {
	sw := newFastSweep(t)
	sp := sw.Speedups()
	m, ok := sp["fast"]
	if !ok {
		t.Fatal("no speedups for fast")
	}
	if v := m[facility.LockPthread]; v < 0.99 || v > 1.01 {
		t.Fatalf("baseline speedup = %v, want 1.0", v)
	}
	if v := m[facility.Txn]; v < 0.4 || v > 0.6 {
		t.Fatalf("Txn speedup = %v, want ~0.5", v)
	}
	gm := sw.Geomean()
	if v := gm[facility.Txn]; v < 0.4 || v > 0.6 {
		t.Fatalf("geomean Txn = %v", v)
	}
}

func TestWriteFigureFormat(t *testing.T) {
	sw := newFastSweep(t)
	var b strings.Builder
	sw.WriteFigure(&b, "1")
	out := b.String()
	if !strings.Contains(out, "# Figure 1(a): fast") {
		t.Fatalf("missing figure header:\n%s", out)
	}
	if !strings.Contains(out, "Parsec+pthreadCondVar") || !strings.Contains(out, "TMParsec+TMCondVar") {
		t.Fatalf("missing system columns:\n%s", out)
	}
}

func TestWriteSpeedupsFormat(t *testing.T) {
	sw := newFastSweep(t)
	var b strings.Builder
	sw.WriteSpeedups(&b)
	out := b.String()
	if !strings.Contains(out, "GEOMEAN") {
		t.Fatalf("missing GEOMEAN row:\n%s", out)
	}
}

func TestWriteTMStats(t *testing.T) {
	sw := newFastSweep(t)
	var b strings.Builder
	sw.WriteTMStats(&b)
	if !strings.Contains(b.String(), "# TM activity") {
		t.Fatal("missing TM activity header")
	}
}

func TestRenderIncludesAll(t *testing.T) {
	sw := newFastSweep(t)
	out := sw.Render("1")
	for _, want := range []string{"# Figure 1(a)", "# Figure 3", "# TM activity"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Render missing %q", want)
		}
	}
}

func TestWriteTable1(t *testing.T) {
	var b strings.Builder
	WriteTable1(&b, parsec.All())
	out := b.String()
	for _, want := range []string{"facesim", "dedup", "TOTAL", "| 65", "19 (6)", "11 (5)"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table 1 missing %q:\n%s", want, out)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	sw := newFastSweep(t)
	var b strings.Builder
	sw.WriteCSV(&b)
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 1+len(sw.Cells) {
		t.Fatalf("csv has %d lines, want %d", len(lines), 1+len(sw.Cells))
	}
	if !strings.HasPrefix(lines[0], "machine,benchmark,system,threads,mean_ns") {
		t.Fatalf("csv header = %q", lines[0])
	}
	for _, l := range lines[1:] {
		if got := strings.Count(l, ","); got != 11 {
			t.Fatalf("csv row %q has %d commas, want 11", l, got)
		}
		if !strings.Contains(l, "fast") {
			t.Fatalf("csv row missing benchmark name: %q", l)
		}
	}
}

func TestDefaultsFill(t *testing.T) {
	cfg := SweepConfig{}.withDefaults()
	if len(cfg.Benchmarks) != 8 || len(cfg.Systems) != 3 || cfg.MaxThreads != 8 ||
		cfg.Trials != 3 || cfg.Scale != 1.0 || cfg.Seed == 0 {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
}

func TestParenFormatting(t *testing.T) {
	if paren(3, 0) != "3" || paren(19, 6) != "19 (6)" {
		t.Fatal("paren formatting mismatch")
	}
}

func TestFmtDur(t *testing.T) {
	if fmtDur(1500*time.Millisecond) != "1.500s" {
		t.Fatalf("got %q", fmtDur(1500*time.Millisecond))
	}
	if fmtDur(2500*time.Microsecond) != "2.50ms" {
		t.Fatalf("got %q", fmtDur(2500*time.Microsecond))
	}
	if !strings.HasSuffix(fmtDur(900*time.Nanosecond), "µs") {
		t.Fatalf("got %q", fmtDur(900*time.Nanosecond))
	}
}
