package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"strconv"
	"strings"

	"repro/internal/bench"
	"repro/internal/harness"
	"repro/internal/obs"
)

// runSweep is -sweep mode: run the benchmark matrix once per GOMAXPROCS
// value and write one schema-versioned trajectory document (bench.Doc).
// Each procs value measures only the saturated cell per benchmark
// (TopThreadsOnly) — the trajectory tracks peak behaviour per core
// count, not the whole thread curve.
func runSweep(base harness.SweepConfig, procsList, outPath string, progress io.Writer) error {
	procs, err := parseProcs(procsList)
	if err != nil {
		return err
	}

	origProcs := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(origProcs)

	meta := bench.Collect()
	meta.Machine = base.Machine.String()
	meta.Scale = base.Scale
	meta.Seed = base.Seed
	meta.Trials = base.Trials
	meta.Warmup = base.Warmup
	meta.WakeFanout = base.CVOpts.WakeFanout
	meta.SerialWake = base.CVOpts.SerialWake

	doc := &bench.Doc{Schema: bench.Schema, Meta: meta}
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		cfg := base
		cfg.MaxThreads = p
		cfg.TopThreadsOnly = true
		cfg.CollectMetrics = true // points need the per-trial histograms
		if progress != nil {
			fmt.Fprintf(progress, "parsecbench: sweep GOMAXPROCS=%d\n", p)
		}
		sw := harness.Run(cfg)
		doc.Points = append(doc.Points, sweepPoints(sw, p)...)
	}

	if err := doc.Validate(); err != nil {
		return fmt.Errorf("sweep produced invalid document: %w", err)
	}
	if err := doc.Write(outPath); err != nil {
		return err
	}
	if progress != nil {
		fmt.Fprintf(progress, "parsecbench: wrote %d points to %s\n", len(doc.Points), outPath)
	}
	return nil
}

// sweepPoints converts one sweep's cells into trajectory points at the
// given procs value. Park/broadcast percentiles come from the per-trial
// condvar histograms, merged across trials before taking quantiles.
func sweepPoints(sw *harness.Sweep, procs int) []bench.Point {
	var out []bench.Point
	for _, c := range sw.Cells {
		mean := c.Mean.Nanoseconds()
		if mean <= 0 {
			mean = 1
		}
		p := bench.Point{
			Benchmark:      c.Benchmark,
			System:         c.System.Short(),
			Procs:          procs,
			Threads:        c.Threads,
			MeanNS:         mean,
			ThroughputOpsS: 1e9 / float64(mean),
			Commits:        c.Commits,
			Aborts:         c.Aborts,
		}
		if total := c.Commits + c.Aborts; total > 0 {
			p.AbortRate = float64(c.Aborts) / float64(total)
		}
		var park, broadcast obs.HistogramSnapshot
		for _, tm := range c.Trials {
			park.Merge(tm.CVHist["sem_park_ns"])
			broadcast.Merge(tm.CVHist["broadcast_ns"])
		}
		p.ParkP50NS = park.Quantile(0.50)
		p.ParkP99NS = park.Quantile(0.99)
		p.BroadcastP50NS = broadcast.Quantile(0.50)
		p.BroadcastP99NS = broadcast.Quantile(0.99)
		out = append(out, p)
	}
	return out
}

// parseProcs parses the -sweep argument: a comma-separated ascending
// GOMAXPROCS list like "1,2,4,8".
func parseProcs(s string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("-sweep: bad GOMAXPROCS value %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-sweep: empty GOMAXPROCS list")
	}
	sort.Ints(out)
	return out, nil
}
