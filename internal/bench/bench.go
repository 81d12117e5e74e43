// Package bench defines the cross-PR benchmark trajectory format
// (ROADMAP item 1, DESIGN.md §13): the schema-versioned BENCH_*.json
// documents `parsecbench -sweep` writes at the repo root, the run
// metadata stamped into them, and the comparison logic `cmd/benchdiff`
// uses to turn two documents into a per-metric delta table with a
// regression verdict. Everything here is stdlib-only so the tools stay
// dependency-free.
package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"strings"
	"time"
)

// Schema is the document format identifier. Bump the suffix on any
// incompatible change to Doc/Point and teach Validate both versions for
// one release so benchdiff can still read committed history.
const Schema = "cv-bench-trajectory/v1"

// Doc is one BENCH_*.json: a sweep of the benchmark matrix across a
// GOMAXPROCS list on one host at one commit.
type Doc struct {
	Schema string  `json:"schema"`
	Meta   RunMeta `json:"meta"`
	Points []Point `json:"points"`
}

// Point is one (benchmark, system, procs) measurement of the sweep.
// Throughput is derived from the trial mean (operations here are whole
// benchmark runs: 1e9 / mean_ns), so trajectory comparisons survive
// workload-scale changes only when the scale is held fixed — which is
// why Meta records it.
type Point struct {
	Benchmark string `json:"benchmark"`
	System    string `json:"system"`
	Procs     int    `json:"procs"`
	Threads   int    `json:"threads"`

	ThroughputOpsS float64 `json:"throughput_ops_s"`
	MeanNS         int64   `json:"mean_ns"`
	AbortRate      float64 `json:"abort_rate"`
	Commits        int64   `json:"commits"`
	Aborts         int64   `json:"aborts"`

	// Park and broadcast latency percentiles, aggregated by merging the
	// per-trial histogram snapshots (obs.HistogramSnapshot.Merge) before
	// taking quantiles. Zero when the system has no TM condvars
	// (pthreadCV park times live in the OS) or nothing parked.
	ParkP50NS      int64 `json:"park_p50_ns"`
	ParkP99NS      int64 `json:"park_p99_ns"`
	BroadcastP50NS int64 `json:"broadcast_p50_ns"`
	BroadcastP99NS int64 `json:"broadcast_p99_ns"`
}

// RunMeta identifies the environment a document was produced in —
// everything needed to judge whether two documents are comparable.
type RunMeta struct {
	Host       string    `json:"host"`
	GoVersion  string    `json:"go_version"`
	GOOS       string    `json:"goos"`
	GOARCH     string    `json:"goarch"`
	NumCPU     int       `json:"num_cpu"`
	GOMAXPROCS int       `json:"gomaxprocs"`
	CPUModel   string    `json:"cpu_model,omitempty"`
	GitSHA     string    `json:"git_sha,omitempty"`
	CreatedAt  time.Time `json:"created_at"`

	// Sweep parameters (zero outside sweep documents: the per-run
	// -resultdir JSONs reuse RunMeta for its environment half only).
	Machine    string  `json:"machine,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	Trials     int     `json:"trials,omitempty"`
	Warmup     int     `json:"warmup,omitempty"`
	WakeFanout int     `json:"wake_fanout,omitempty"`
	SerialWake bool    `json:"serial_wake,omitempty"`
}

// Collect gathers the environment half of RunMeta: toolchain and host
// identity, CPU model when /proc/cpuinfo is readable, git SHA when .git
// resolves. Best-effort fields stay empty rather than failing.
func Collect() RunMeta {
	m := RunMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CreatedAt:  time.Now().UTC(),
	}
	if h, err := os.Hostname(); err == nil {
		m.Host = h
	}
	m.CPUModel = cpuModel()
	m.GitSHA = gitSHA(".")
	return m
}

// cpuModel reads the first "model name" line of /proc/cpuinfo
// (Linux-only; "" elsewhere).
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok &&
			strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// gitSHA resolves HEAD by reading .git directly (no git subprocess, so
// it works in minimal containers). Returns "" when dir is not a
// repository root or the layout is unexpected.
func gitSHA(dir string) string {
	head, err := os.ReadFile(dir + "/.git/HEAD")
	if err != nil {
		return ""
	}
	ref := strings.TrimSpace(string(head))
	if sha, ok := strings.CutPrefix(ref, "ref: "); ok {
		data, err := os.ReadFile(dir + "/.git/" + strings.TrimSpace(sha))
		if err != nil {
			// Packed refs: scan .git/packed-refs for the ref name.
			packed, perr := os.ReadFile(dir + "/.git/packed-refs")
			if perr != nil {
				return ""
			}
			for _, line := range strings.Split(string(packed), "\n") {
				if f := strings.Fields(line); len(f) == 2 && f[1] == strings.TrimSpace(sha) {
					return f[0]
				}
			}
			return ""
		}
		return strings.TrimSpace(string(data))
	}
	if len(ref) >= 40 {
		return ref // detached HEAD
	}
	return ""
}

// DefaultFilename is the canonical name of a sweep document:
// BENCH_<host>_<YYYY-MM-DD>.json.
func DefaultFilename(host string, t time.Time) string {
	if host == "" {
		host = "unknown"
	}
	return fmt.Sprintf("BENCH_%s_%s.json", sanitize(host), t.Format("2006-01-02"))
}

// sanitize keeps a host name filesystem- and shell-friendly.
func sanitize(s string) string {
	var b strings.Builder
	for _, c := range s {
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z',
			c >= '0' && c <= '9', c == '-', c == '.':
			b.WriteRune(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// Load reads and validates one document.
func Load(path string) (*Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// Write serializes the document as indented JSON to path.
func (d *Doc) Write(path string) error {
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// Validate checks the document against the schema: version match,
// required metadata, and per-point sanity. This is what
// `benchdiff -check` runs over committed BENCH_*.json files.
func (d *Doc) Validate() error {
	if d.Schema != Schema {
		return fmt.Errorf("schema %q, want %q", d.Schema, Schema)
	}
	if d.Meta.GoVersion == "" || d.Meta.GOOS == "" || d.Meta.GOARCH == "" {
		return fmt.Errorf("meta missing toolchain identity (go_version/goos/goarch)")
	}
	if d.Meta.NumCPU <= 0 {
		return fmt.Errorf("meta num_cpu %d invalid", d.Meta.NumCPU)
	}
	if d.Meta.CreatedAt.IsZero() {
		return fmt.Errorf("meta created_at unset")
	}
	if len(d.Points) == 0 {
		return fmt.Errorf("no points")
	}
	seen := make(map[string]bool, len(d.Points))
	for i, p := range d.Points {
		if p.Benchmark == "" || p.System == "" {
			return fmt.Errorf("point %d: empty benchmark/system", i)
		}
		if p.Procs <= 0 || p.Threads <= 0 {
			return fmt.Errorf("point %d (%s/%s): procs %d threads %d invalid",
				i, p.Benchmark, p.System, p.Procs, p.Threads)
		}
		if p.MeanNS <= 0 || p.ThroughputOpsS <= 0 {
			return fmt.Errorf("point %d (%s/%s): non-positive timing", i, p.Benchmark, p.System)
		}
		if p.AbortRate < 0 || p.AbortRate > 1 {
			return fmt.Errorf("point %d (%s/%s): abort_rate %v out of [0,1]",
				i, p.Benchmark, p.System, p.AbortRate)
		}
		k := p.key()
		if seen[k] {
			return fmt.Errorf("duplicate point %s", k)
		}
		seen[k] = true
	}
	return nil
}

// key identifies a point for cross-document matching.
func (p Point) key() string {
	return fmt.Sprintf("%s/%s/p%d", p.Benchmark, p.System, p.Procs)
}
