// Command benchmark is the repository's benchmark: five condvar workloads
// on the paper's three systems, measured from outside the layers. See
// README.md here for the metrics and the command lines.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is BENCHMARK.json, which names every workload and metric; the
// program prints exactly those and fails if it measured any other set.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func loadSpec(dir string) (*benchSpec, error) {
	raw, err := os.ReadFile(filepath.Join(dir, "..", "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	spec := &benchSpec{}
	if err := json.Unmarshal(raw, spec); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return spec, nil
}

func (s *benchSpec) metrics(traced bool) []metricSpec {
	if traced {
		return s.PerLayer
	}
	return s.EndToEnd
}

// meta is recorded in every result file.
type meta struct {
	Time       string  `json:"time"`
	Nproc      int     `json:"nproc"`
	Gomaxprocs int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
	Dirty      bool    `json:"dirty"`
	Seed       uint64  `json:"seed"`
	Seconds    float64 `json:"seconds"`
	CalibNs    float64 `json:"bench.calib_ns"`
}

type resultFile struct {
	Meta    meta      `json:"meta"`
	Results []*result `json:"results"`
}

// gitState reports the commit the benchmark was built from; a checkout
// that is not a git repository has none.
func gitState(dir string) (sha string, dirty bool) {
	out, err := exec.Command("git", "-C", dir, "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, _ := exec.Command("git", "-C", dir, "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), len(status) > 0
}

// contract checks that res holds exactly the metrics BENCHMARK.json lists
// and renders the result line the driver reads.
func contract(spec *benchSpec, res *result) (string, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Failed == 0, res.Attempted, res.Failed, map[string]value{}}
	for _, m := range spec.metrics(res.Traced) {
		s, ok := res.Metrics[m.Name]
		if !ok {
			return "", fmt.Errorf("%s: BENCHMARK.json lists %s, which the run did not measure", res.Workload, m.Name)
		}
		line.Metrics[m.Name] = value{s.Value, m.Unit}
	}
	for name := range res.Metrics {
		if _, ok := line.Metrics[name]; !ok {
			return "", fmt.Errorf("%s: the run measured %s, which BENCHMARK.json does not list", res.Workload, name)
		}
	}
	out, err := json.Marshal(line)
	return string(out), err
}

// report prints one workload's metrics by name, with units.
func report(spec *benchSpec, m meta, res *result) {
	mode := "end to end, instruments detached"
	if res.Traced {
		mode = "traced, per layer"
	}
	fmt.Printf("\n%s (%s)  seed=%d  rounds=%d  slice=%.3fs  GOMAXPROCS=%d\n",
		res.Workload, mode, m.Seed, res.Rounds, res.SliceS, m.Gomaxprocs)
	for _, ms := range spec.metrics(res.Traced) {
		s := res.Metrics[ms.Name]
		line := fmt.Sprintf("  %-36s %14.6g %-6s q1 %.6g  median %.6g  q3 %.6g  n=%d",
			ms.Name, s.Value, ms.Unit, s.Q1, s.Median, s.Q3, s.N)
		if res.Traced && ms.Unit == "ns" { // budgets travel across hosts as multiples of the calibration loop
			line += fmt.Sprintf("  /calib %.3f", s.Value/m.CalibNs)
		}
		fmt.Println(line)
	}
	fmt.Printf("  %-36s %14.6f        attempted %d  failed %d\n", "fail_share", res.FailShare, res.Attempted, res.Failed)
	for _, n := range res.Notes {
		fmt.Println("  note:", n)
	}
}

// compare prints, per workload and end-to-end metric, the two values, the
// delta and a verdict against the bound: UNRESOLVED where the runs'
// quartile ranges are wider than the bound and overlap.
func compare(spec *benchSpec, pathA, pathB string) (regressed bool, err error) {
	var files [2]resultFile
	for i, p := range []string{pathA, pathB} {
		raw, err := os.ReadFile(p)
		if err != nil {
			return false, err
		}
		if err := json.Unmarshal(raw, &files[i]); err != nil {
			return false, fmt.Errorf("%s: %w", p, err)
		}
	}
	find := func(f resultFile, name string) *result {
		for _, r := range f.Results {
			if r.Workload == name && !r.Traced {
				return r
			}
		}
		return nil
	}
	fmt.Printf("%-11s %-16s %14s %14s %8s %6s  %s\n", "workload", "metric", "a", "b", "worse", "bound", "verdict")
	for _, w := range spec.Workloads {
		a, b := find(files[0], w.Name), find(files[1], w.Name)
		if a == nil || b == nil {
			continue
		}
		if b.Failed > a.Failed {
			fmt.Printf("%-11s %-16s %14d %14d %8s %6s  REGRESS\n", w.Name, "failed", a.Failed, b.Failed, "", "0")
			regressed = true
		}
		for _, m := range spec.EndToEnd {
			sa, sb := a.Metrics[m.Name], b.Metrics[m.Name]
			sign := 1.0
			if m.Better == "higher" {
				sign = -1
			}
			worse := sign * (sb.Value - sa.Value) / sa.Value
			spread := max(sa.Q3-sa.Q1, sb.Q3-sb.Q1) / sa.Median
			disjoint := sa.Q3 < sb.Q1 || sb.Q3 < sa.Q1
			verdict := "PASS"
			switch {
			case spread > m.Bound && !disjoint:
				verdict = "UNRESOLVED"
			case worse > m.Bound:
				verdict = "REGRESS"
				regressed = true
			}
			fmt.Printf("%-11s %-16s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n",
				w.Name, m.Name, sa.Value, sb.Value, 100*worse, 100*m.Bound, verdict)
		}
	}
	return regressed, nil
}

func main() {
	dir := flag.String("dir", ".", "the benchmark's directory; BENCHMARK.json is one level up")
	name := flag.String("workload", "all", "workload to run, or all")
	seed := flag.Uint64("seed", 0x5EED, "seed of the generated inputs and of the notify/cancel sequence")
	seconds := flag.Float64("seconds", 0, "length of a workload's measured phase; 0 means run_seconds of BENCHMARK.json")
	trace := flag.String("trace", "0", "0: end-to-end metrics, instruments detached; 1: the traced run, per-layer metrics")
	out := flag.String("out", "", "result file; default <dir>/out/<workload>-<e2e|trace>.json")
	cmp := flag.Bool("compare", false, "compare the end-to-end metrics of two result files: -compare a.json b.json")
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	spec, err := loadSpec(*dir)
	if err != nil {
		fail(err)
	}
	if *cmp {
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two result files"))
		}
		regressed, err := compare(spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if *trace != "0" && *trace != "1" {
		fail(fmt.Errorf("-trace takes 0 or 1, not %q", *trace))
	}
	var run []*workload
	for _, w := range spec.Workloads {
		if wl := workloadByName(w.Name); wl == nil {
			fail(fmt.Errorf("BENCHMARK.json lists workload %q, which the program does not have", w.Name))
		} else if *name == "all" || *name == w.Name {
			run = append(run, wl)
		}
	}
	if len(run) == 0 {
		fail(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}

	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))
	cfg := config{seed: *seed, seconds: *seconds, traced: *trace == "1", dir: *dir}
	sha, dirty := gitState(*dir)
	file := resultFile{Meta: meta{
		Time: time.Now().UTC().Format(time.RFC3339), Nproc: runtime.NumCPU(), Gomaxprocs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GitSHA: sha, Dirty: dirty, Seed: *seed, Seconds: *seconds, CalibNs: summarize(calib.measure(20*time.Millisecond, 3)).Median,
	}}
	var last string
	var attempted, failed int64
	for _, wl := range run {
		res, err := runWorkload(wl, cfg)
		if err != nil {
			fail(err)
		}
		if last, err = contract(spec, res); err != nil {
			fail(err)
		}
		report(spec, file.Meta, res)
		file.Results = append(file.Results, res)
		attempted, failed = attempted+res.Attempted, failed+res.Failed
	}

	if *out == "" {
		mode := "e2e"
		if cfg.traced {
			mode = "trace"
		}
		*out = filepath.Join(*dir, "out", *name+"-"+mode+".json")
	}
	raw, err := json.MarshalIndent(file, "", " ")
	if err == nil {
		if err = os.MkdirAll(filepath.Dir(*out), 0o755); err == nil {
			err = os.WriteFile(*out, raw, 0o644)
		}
	}
	if err != nil {
		fail(err)
	}
	fmt.Printf("\nseed %d, results in %s\n", *seed, *out)
	if len(run) > 1 { // the result line is one workload's; a suite reports its totals
		last = fmt.Sprintf(`{"correct":%t,"attempted":%d,"failed":%d,"results":%q}`, failed == 0, attempted, failed, *out)
	}
	fmt.Println(last)
	if failed > 0 {
		os.Exit(1)
	}
}
