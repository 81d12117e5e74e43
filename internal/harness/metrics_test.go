package harness

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/facility"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/parsec"
)

// A real (tiny) sweep with CollectMetrics must produce per-trial TM and
// condvar snapshots, and the JSON document must carry the abort-reason
// counters and the wait-latency histogram buckets the paper-level
// analyses need.
func TestWriteMetricsJSON(t *testing.T) {
	b, err := parsec.ByName("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	tr := obs.NewTracer(1024)
	tr.Enable()
	sw := Run(SweepConfig{
		Benchmarks:     []parsec.Benchmark{b},
		Systems:        []facility.Kind{facility.LockTM},
		Machine:        parsec.Westmere,
		MaxThreads:     2,
		Trials:         2,
		Warmup:         0,
		Scale:          0.25,
		CollectMetrics: true,
		Tracer:         tr,
	})
	tr.Disable()
	if tr.Emitted() == 0 {
		t.Error("sweep with a tracer recorded no events")
	}

	var buf bytes.Buffer
	if err := sw.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Machine string `json:"machine"`
		Trials  int    `json:"trials"`
		Cells   []struct {
			Benchmark string `json:"benchmark"`
			System    string `json:"system"`
			Threads   int    `json:"threads"`
			Checksum  string `json:"checksum"`
			Trials    []struct {
				ElapsedNS int64                            `json:"elapsed_ns"`
				TM        map[string]int64                 `json:"tm"`
				TMHist    map[string]obs.HistogramSnapshot `json:"tm_hist"`
				CV        map[string]int64                 `json:"cv"`
				CVHist    map[string]obs.HistogramSnapshot `json:"cv_hist"`
			} `json:"trials"`
		} `json:"cells"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("metrics output is not valid JSON: %v", err)
	}
	if doc.Machine != "westmere" || doc.Trials != 2 {
		t.Fatalf("header = %+v", doc)
	}
	if len(doc.Cells) == 0 {
		t.Fatal("no cells")
	}
	for _, c := range doc.Cells {
		if len(c.Trials) != 2 {
			t.Fatalf("cell %s/t%d has %d trial snapshots, want 2", c.System, c.Threads, len(c.Trials))
		}
		for _, trial := range c.Trials {
			if trial.ElapsedNS <= 0 {
				t.Errorf("trial elapsed = %d", trial.ElapsedNS)
			}
			// Abort-reason counters.
			for _, k := range []string{"aborts", "conflict_aborts", "capacity_aborts", "syscall_aborts", "explicit_aborts"} {
				if _, ok := trial.TM[k]; !ok {
					t.Errorf("tm snapshot missing %q", k)
				}
			}
			// LockTM runs a transaction only for a wait's enqueue or a
			// notify that finds a waiter: a naked notify on an empty
			// queue is one consistent read (stm.Peek). At 1 thread
			// fluidanimate's barrier never parks, so it commits nothing.
			if c.Threads >= 2 && trial.TM["commits"] == 0 {
				t.Errorf("t=%d: LockTM trial committed no transactions", c.Threads)
			}
			if c.Threads == 1 && trial.TM["commits"] != 0 {
				t.Errorf("t=1: LockTM trial committed %d transactions, want 0 (no waiter ever parks)", trial.TM["commits"])
			}
			// Wait-latency histograms with real buckets (fluidanimate's
			// barrier guarantees waits at >= 2 threads).
			for _, k := range []string{"enqueue_to_notify_ns", "notify_to_wake_ns", "sem_park_ns"} {
				if _, ok := trial.CVHist[k]; !ok {
					t.Errorf("cv_hist missing %q", k)
				}
			}
			if c.Threads >= 2 {
				h := trial.CVHist["enqueue_to_notify_ns"]
				if h.Count == 0 || len(h.Buckets) == 0 {
					t.Errorf("t=%d: enqueue_to_notify_ns empty: %+v", c.Threads, h)
				}
				if trial.CV["waits"] == 0 {
					t.Errorf("t=%d: no waits recorded", c.Threads)
				}
			}
		}
	}
}

// Without CollectMetrics the cells carry no trial snapshots and the JSON
// still serializes (aggregates only).
func TestWriteMetricsJSONWithoutCollection(t *testing.T) {
	sw := newFastSweep(t)
	for _, c := range sw.Cells {
		if c.Trials != nil {
			t.Fatalf("CollectMetrics off but cell has trial snapshots")
		}
	}
	var buf bytes.Buffer
	if err := sw.WriteMetricsJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("invalid JSON")
	}
}

// TestChaosSweepFaultMetrics: an armed injector threaded through
// SweepConfig reaches the benchmark engines (hooks fire), the workload
// still produces its deterministic checksum, and the per-trial metrics
// carry the injector's per-point counts.
func TestChaosSweepFaultMetrics(t *testing.T) {
	b, err := parsec.ByName("fluidanimate")
	if err != nil {
		t.Fatal(err)
	}
	in := fault.New(0xC4A05).Set(fault.PreCommit, fault.Rule{Rate: 0.2, Action: fault.ActAbort})
	in.Arm()
	defer in.Disarm()
	sw := Run(SweepConfig{
		Benchmarks:     []parsec.Benchmark{b},
		Systems:        []facility.Kind{facility.LockTM, facility.Txn},
		Machine:        parsec.Westmere,
		MaxThreads:     2,
		Trials:         1,
		Scale:          0.25,
		CollectMetrics: true,
		Fault:          in,
	})
	if in.Fired(fault.PreCommit) == 0 {
		t.Fatal("injector never reached the benchmark engines")
	}
	for i := range sw.Cells {
		c := &sw.Cells[i]
		for _, tm := range c.Trials {
			if tm.Fault == nil {
				t.Fatalf("cell %s/%s: trial missing fault snapshot", c.Benchmark, c.System)
			}
			// A LockTM cell at 1 thread parks no waiter, and its empty
			// naked notifies run no transaction (stm.Peek), so it draws
			// no precommit fault; every other cell runs transactions.
			drawn := tm.Fault["tx.precommit.drawn"]
			if c.System == facility.LockTM && c.Threads == 1 {
				if drawn != 0 {
					t.Fatalf("cell %s/%s/t1: %d precommit draws, want 0 (no transaction runs): %v", c.Benchmark, c.System, drawn, tm.Fault)
				}
			} else if drawn == 0 {
				t.Fatalf("cell %s/%s/t%d: no precommit draws recorded: %v", c.Benchmark, c.System, c.Threads, tm.Fault)
			}
		}
	}
	// Injected aborts must not perturb workload results: the checksum
	// matches across systems exactly as in a clean sweep.
	base := sw.Cells[0].Checksum
	for _, c := range sw.Cells[1:] {
		if c.Benchmark == sw.Cells[0].Benchmark && c.Threads == sw.Cells[0].Threads && c.Checksum != base {
			t.Fatalf("chaos broke determinism: %s %s checksum %x != %x", c.Benchmark, c.System, c.Checksum, base)
		}
	}
}
