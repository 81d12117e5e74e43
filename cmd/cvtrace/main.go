// Command cvtrace is the offline wake-propagation analyzer (DESIGN.md
// §15): point it at a Chrome trace dump (parsecbench -trace, cvstress
// -trace) or a flight-recorder snapshot (cvflight-*.json) and it
// reconstructs every causal wake flow — which committed notify woke whom
// — and reports the last wake per broadcast (the commit handler's share
// and the waiter's own), post-to-consume latency, and stalls.
//
// Usage:
//
//	cvtrace [-format text|json] [-stall 1ms] [-check] [-strict] <dump.json>
//
// With -check, cvtrace only runs the structural self-validation (every
// flow has its root, every consume its post, posts and consumes fit the
// batch) and exits non-zero on any violation — the verify.sh gate.
// Bounded captures retain the last N events per trace shard, so flows
// that began at or before the dump's retention horizon may lack their
// root or some posts; those are skipped (and counted) unless -strict
// treats the capture as complete.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/waketrace"
)

func main() {
	format := flag.String("format", "text", "output format: text or json")
	stall := flag.Duration("stall", time.Millisecond, "flag wakes whose post-to-consume gap exceeds this (0 disables)")
	check := flag.Bool("check", false, "structural self-validation only; exit 1 on any violation")
	strict := flag.Bool("strict", false, "treat window-truncated flows (begun at or before the dump's retention horizon) as violations instead of skipping them")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: cvtrace [flags] <dump.json>\n\nAnalyze causal wake-propagation traces (Chrome trace or flight dump).\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	path := flag.Arg(0)

	evs, horizon, err := waketrace.LoadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "cvtrace: %v\n", err)
		os.Exit(1)
	}
	flows := waketrace.Build(evs)
	// Bounded captures (trace rings, flight recorders) evict their oldest
	// events, so flows that began at or before the retention horizon may
	// be missing parts; skip those unless -strict says the capture was
	// complete.
	var truncated []*waketrace.Flow
	if !*strict {
		flows, truncated = waketrace.SplitTruncated(flows, horizon)
	}

	if *check {
		problems := waketrace.Check(flows)
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintf(os.Stderr, "cvtrace: check: %s\n", p)
			}
			fmt.Fprintf(os.Stderr, "cvtrace: %d violation(s) across %d flow(s)\n", len(problems), len(flows))
			os.Exit(1)
		}
		note := ""
		if len(truncated) > 0 {
			note = fmt.Sprintf(" (%d window-truncated flow(s) skipped)", len(truncated))
		}
		fmt.Printf("cvtrace: ok — %d flow(s), %d event(s), no structural violations%s\n", len(flows), len(evs), note)
		return
	}
	if len(truncated) > 0 {
		fmt.Fprintf(os.Stderr, "cvtrace: %d flow(s) began before the retention horizon; analyzing the %d complete one(s)\n", len(truncated), len(flows))
	}

	rep := waketrace.Analyze(flows, waketrace.Options{StallThreshold: *stall})
	switch *format {
	case "json":
		err = rep.WriteJSON(os.Stdout)
	case "text":
		err = rep.WriteText(os.Stdout)
	default:
		fmt.Fprintf(os.Stderr, "cvtrace: unknown -format %q (want text or json)\n", *format)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "cvtrace: %v\n", err)
		os.Exit(1)
	}
	if len(rep.Problems) > 0 {
		os.Exit(1)
	}
}
