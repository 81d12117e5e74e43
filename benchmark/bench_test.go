package main

import "testing"

// TestSmoke runs every workload and the ladder for one short round, plain
// and traced. It asserts only that the workloads and metrics the program
// emits are the ones BENCHMARK.json lists and that no op failed: no timing
// assertion and no sleep, so it keeps the benchmark compiling and its
// checks honest without adding a flake.
func TestSmoke(t *testing.T) {
	spec, err := loadSpec(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		wl := workloadByName(w.Name)
		if wl == nil {
			t.Errorf("BENCHMARK.json lists workload %q, which the program does not have", w.Name)
			continue
		}
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(wl, config{seed: 0x5EED, seconds: 0.06, traced: traced, quick: true, dir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := contract(spec, res); err != nil {
				t.Error(err)
			}
			if res.Attempted == 0 || res.Failed != 0 {
				t.Errorf("%s traced=%v: %d ops attempted, %d failed", w.Name, traced, res.Attempted, res.Failed)
			}
		}
	}
}
