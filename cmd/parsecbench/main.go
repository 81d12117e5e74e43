// Command parsecbench regenerates the paper's evaluation (Section 5):
// Figures 1 and 2 (per-benchmark time vs threads under the three systems,
// on the STM "westmere" and simulated-HTM "haswell" machines) and Figure 3
// (geometric-mean speedup vs the pthread baseline).
//
// Usage:
//
//	parsecbench [flags]
//
//	-machine westmere|haswell   TM substrate (default westmere → Figure 1)
//	-bench   name[,name...]     subset of benchmarks (default: all eight)
//	-threads N                  max thread count (default 8)
//	-trials  N                  timed trials per cell (default 3; paper used 5)
//	-warmup  N                  untimed warm-up runs per cell (default 1)
//	-preset  name               test / simsmall / native / large inputs
//	-scale   F                  explicit scale factor (overrides -preset)
//	-seed    N                  input seed
//	-summary                    print only the Figure 3 speedup table
//	-quiet                      suppress live progress lines
//	-metrics                    print the per-trial metrics snapshot as JSON
//	-trace out.json             record a Chrome trace_event file of the run
//	-tracebuf N                 trace ring-buffer capacity in events
//	-introspect addr            serve /debug/cv/* live endpoints while running
//	                            (abort attribution on /debug/cv/conflicts)
//
// Examples:
//
//	parsecbench -machine westmere              # Figure 1 data + Figure 3(a)
//	parsecbench -machine haswell               # Figure 2 data + Figure 3(b)
//	parsecbench -bench dedup -threads 4        # just the dedup anomaly
//	parsecbench -trace t.json -metrics         # trace + metrics JSON
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/obs/introspect"
	"repro/internal/obs/registry"
	"repro/internal/parsec"
	"repro/internal/waketrace"
)

func main() {
	machine := flag.String("machine", "westmere", "TM substrate: westmere (STM) or haswell (simulated HTM)")
	benchList := flag.String("bench", "", "comma-separated benchmark subset (default all)")
	threads := flag.Int("threads", 8, "maximum thread count")
	trials := flag.Int("trials", 3, "timed trials per configuration")
	warmup := flag.Int("warmup", 1, "warm-up runs per configuration")
	scale := flag.Float64("scale", 0, "workload scale factor (overrides -preset)")
	preset := flag.String("preset", "native", "input preset: test (0.25), simsmall (0.5), native (1.0), large (2.0)")
	seed := flag.Uint64("seed", 0x5EED, "workload input seed")
	summary := flag.Bool("summary", false, "print only the Figure 3 speedup table")
	csv := flag.Bool("csv", false, "emit the raw grid as CSV instead of tables")
	metrics := flag.Bool("metrics", false, "emit the per-trial metrics snapshot as JSON instead of tables")
	tracePath := flag.String("trace", "", "write a Chrome trace_event JSON file of the run's event lifecycle")
	traceBuf := flag.Int("tracebuf", 1<<20, "trace ring-buffer capacity in events")
	introspectAddr := flag.String("introspect", "", "serve /debug/cv/* live-introspection endpoints on this address (e.g. 127.0.0.1:6070)")
	quiet := flag.Bool("quiet", false, "suppress live progress")
	flag.Parse()

	effScale := *scale
	if effScale <= 0 {
		switch *preset {
		case "test":
			effScale = 0.25
		case "simsmall":
			effScale = 0.5
		case "native":
			effScale = 1.0
		case "large":
			effScale = 2.0
		default:
			fmt.Fprintf(os.Stderr, "parsecbench: unknown preset %q\n", *preset)
			os.Exit(2)
		}
	}

	var m parsec.Machine
	var figure string
	switch *machine {
	case "westmere":
		m, figure = parsec.Westmere, "1"
	case "haswell":
		m, figure = parsec.Haswell, "2"
	default:
		fmt.Fprintf(os.Stderr, "parsecbench: unknown machine %q (want westmere or haswell)\n", *machine)
		os.Exit(2)
	}

	var benches []parsec.Benchmark
	if *benchList != "" {
		for _, name := range strings.Split(*benchList, ",") {
			b, err := parsec.ByName(strings.TrimSpace(name))
			if err != nil {
				fmt.Fprintln(os.Stderr, "parsecbench:", err)
				os.Exit(2)
			}
			benches = append(benches, b)
		}
	}

	cfg := harness.SweepConfig{
		Benchmarks:     benches,
		Machine:        m,
		MaxThreads:     *threads,
		Trials:         *trials,
		Warmup:         *warmup,
		Scale:          effScale,
		Seed:           *seed,
		CollectMetrics: *metrics,
	}
	if !*quiet {
		cfg.Progress = os.Stderr
	}
	if *tracePath != "" {
		cfg.Tracer = obs.NewTracer(*traceBuf)
		cfg.Tracer.Enable()
	}
	if *introspectAddr != "" {
		// The scrape surface needs live sources: per-trial CVStats (so
		// CollectMetrics goes on) and a tracer behind /debug/cv/trace
		// (a private ring when -trace didn't ask for a file).
		cfg.CollectMetrics = true
		if cfg.Tracer == nil {
			cfg.Tracer = obs.NewTracer(*traceBuf)
			cfg.Tracer.Enable()
		}
		cfg.Registry = registry.Default
		cfg.Registry.SetTracer(cfg.Tracer)
		srv, err := introspect.Start(introspect.Options{Addr: *introspectAddr, Registry: cfg.Registry})
		if err != nil {
			fmt.Fprintln(os.Stderr, "parsecbench:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "parsecbench: introspect: listening on %s\n", srv.Addr())
	}

	sw := harness.Run(cfg)

	if *tracePath != "" {
		cfg.Tracer.Disable()
		if err := cfg.Tracer.WriteChromeTraceFile(*tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "parsecbench:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "parsecbench: wrote trace (%d events) to %s\n",
			cfg.Tracer.Emitted(), *tracePath)
		// In-run wake-flow check: rebuild the flows straight from the ring
		// (those it cut short set aside) so a broken one is caught at the
		// source, then point at the offline analyzer for the full report.
		complete, truncated, problems := waketrace.CheckTracer(cfg.Tracer)
		fmt.Fprintf(os.Stderr, "parsecbench: %d wake flows, %d truncated at window start\n",
			len(complete), len(truncated))
		if len(problems) != 0 {
			for _, p := range problems {
				fmt.Fprintln(os.Stderr, "parsecbench: wake-flow violation:", p)
			}
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "parsecbench: analyze: go run ./cmd/cvtrace %s\n", *tracePath)
	}
	switch {
	case *csv:
		sw.WriteCSV(os.Stdout)
	case *metrics:
		if err := sw.WriteMetricsJSON(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "parsecbench:", err)
			os.Exit(1)
		}
	case *summary:
		sw.WriteSpeedups(os.Stdout)
	default:
		fmt.Print(sw.Render(figure))
	}
}
