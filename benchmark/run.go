package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/facility"
)

// watchdog is how long past its slice a system may run before the run is
// declared a lost wake-up and aborted with exit status 2.
const watchdog = 10 * time.Second

type config struct {
	seed    uint64
	seconds float64 // length of the measured phase
	traced  bool
	quick   bool   // smoke test: one set-up, one round, one repetition per rung
	dir     string // the benchmark's directory; results and spans go to dir/out
}

// result is one workload's run, as written to the result file.
type result struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Rounds    int                `json:"rounds"`
	SliceS    float64            `json:"slice_s"`
	Attempted int64              `json:"attempted"`
	Failed    int64              `json:"failed"`
	FailShare float64            `json:"fail_share"`
	Metrics   map[string]summary `json:"metrics"`
	// Series holds the per-round values behind each end-to-end metric.
	Series map[string][]float64 `json:"series,omitempty"`
	Notes  []string             `json:"notes,omitempty"`
}

// system is one system under test on one workload: a runner per group.
type system struct {
	kind   facility.Kind
	in     instr
	groups []runner
	ops    int64 // every op driven so far, warm-up included: the base of the per-op counters
}

func (s *system) tm() (t tmTotals) {
	for _, r := range s.groups {
		t.add(r.tm())
	}
	return t
}

type bench struct {
	cfg config
	wl  *workload
	ev  *env
	res *result
}

func newBench(wl *workload, cfg config) *bench {
	return &bench{cfg: cfg, wl: wl,
		ev:  newEnv(cfg),
		res: &result{Workload: wl.name, Traced: cfg.traced, Metrics: map[string]summary{}}}
}

// runWorkload measures one workload: its end-to-end metrics with every
// instrument detached, or, traced, the per-layer metrics.
func runWorkload(wl *workload, cfg config) (*result, error) {
	b := newBench(wl, cfg)
	if cfg.traced {
		if err := b.perLayer(); err != nil {
			return nil, fmt.Errorf("%s: traced run: %w", wl.name, err)
		}
	} else {
		b.endToEnd()
	}
	b.res.FailShare = float64(b.res.Failed) / float64(max(b.res.Attempted, 1))
	return b.res, nil
}

func (b *bench) system(wl *workload, k facility.Kind, in instr) *system {
	return &system{kind: k, in: in, groups: wl.build(b.ev, k, in)}
}

// slice runs group g of s for d (or maxOps ops) under the watchdog.
func (b *bench) slice(s *system, g int, d time.Duration, maxOps int64) sliceOut {
	s.in.spans.reset()
	done := make(chan sliceOut, 1)
	go func() { done <- s.groups[g].run(d, maxOps) }()
	select {
	case o := <-done:
		s.ops += o.ops
		b.res.Attempted += o.ops
		b.res.Failed += o.failed
		return o
	case <-time.After(d + watchdog):
		fmt.Fprintf(os.Stderr, "%s/%s: a slice of %v had not finished %v after its end: lost wake-up\n",
			b.wl.name, kindNames[s.kind], d, watchdog)
		fmt.Fprintf(os.Stderr, "fail_share: at least 1 op of %d attempted never finished\n", b.res.Attempted+1)
		os.Exit(2)
		panic("unreachable")
	}
}

func (b *bench) warm(wl *workload, systems ...*system) {
	for _, s := range systems {
		for g := range s.groups {
			warm := wl.warm
			if b.cfg.quick {
				warm = min(warm, 64)
			}
			b.slice(s, g, 0, warm)
		}
	}
}

// cpuMicros is the process's user+system CPU time so far.
func cpuMicros() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	us := func(tv syscall.Timeval) float64 { return float64(tv.Sec)*1e6 + float64(tv.Usec) }
	return us(ru.Utime) + us(ru.Stime)
}

func (b *bench) put(name string, xs ...float64) { b.res.Metrics[name] = summarize(xs) }

func (b *bench) note(format string, a ...any) {
	b.res.Notes = append(b.res.Notes, fmt.Sprintf(format, a...))
}

// tail reports d's high percentile and notes which one the sample allowed.
func (b *bench) tail(name string, d *dist) float64 {
	q := tailQuantile(d.count())
	if q != 0.99 {
		b.note("%s: %d samples, so p%.1f stands in for p99", name, d.count(), 100*q)
	}
	return d.quantile(q)
}

// endToEnd is the untraced run. Every round runs one slice of each system
// back to back, so host drift hits all systems alike; a metric is the
// median over rounds of its per-slice value.
func (b *bench) endToEnd() {
	wl, cfg := b.wl, b.cfg
	rounds := wl.rounds
	if cfg.quick {
		rounds = 1
	}
	// Set-up — inputs, engines, condvars and one warm-up round of a fixed
	// number of ops — is repeated through the run, so that its time is a
	// median too and so that no metric hangs on where one set of systems
	// happened to land in memory.
	var systems []*system
	var setup []float64
	build := func() {
		start := time.Now()
		systems = nil
		for _, k := range kinds {
			systems = append(systems, b.system(wl, k, instr{}))
		}
		if wl.statsWake {
			systems = append(systems, b.system(wl, facility.LockTM, instr{stats: &core.CVStats{}}))
		}
		b.warm(wl, systems...)
		setup = append(setup, time.Since(start).Seconds())
	}
	const pthread, tmcv, txn = 0, 1, 2
	nsys, waker := len(kinds), tmcv
	if wl.statsWake {
		nsys, waker = nsys+1, nsys
	}

	slice := time.Duration(cfg.seconds / float64(rounds*nsys*len(wl.groups)) * float64(time.Second))
	b.res.Rounds, b.res.SliceS = rounds, slice.Seconds()
	series := map[string][]float64{}
	for r := 0; r < rounds; r++ {
		if r%max(1, rounds/5) == 0 {
			build()
		}
		var vsPthread, txnVsPthread, rate, cpu, allocs []float64
		var wake dist
		for g := range wl.groups {
			var o [4]sliceOut
			for i, s := range systems {
				if i != tmcv {
					o[i] = b.slice(s, g, slice, 0)
					continue
				}
				var m0, m1 runtime.MemStats
				runtime.ReadMemStats(&m0)
				c0 := cpuMicros()
				o[i] = b.slice(s, g, slice, 0)
				c1 := cpuMicros()
				runtime.ReadMemStats(&m1)
				cpu = append(cpu, (c1-c0)/float64(o[i].ops))
				allocs = append(allocs, float64(m1.Mallocs-m0.Mallocs)/float64(o[i].ops))
			}
			rate = append(rate, o[tmcv].opsPerSec())
			vsPthread = append(vsPthread, o[tmcv].opsPerSec()/o[pthread].opsPerSec())
			txnVsPthread = append(txnVsPthread, o[txn].opsPerSec()/o[pthread].opsPerSec())
			wake.add(o[waker].wake)
		}
		add := func(name string, v float64) { series[name] = append(series[name], v) }
		add("ops_per_s", geomean(rate))
		add("tmcv_vs_pthread", geomean(vsPthread))
		add("txn_vs_pthread", geomean(txnVsPthread))
		add("cpu_us_per_op", geomean(cpu))
		add("allocs_per_op", geomean(allocs))
		add("wake_p50_us", wake.quantile(0.5)/1e3)
		q := tailQuantile(wake.count())
		if r == 0 && q != 0.99 {
			b.note("wake_p99_us: %d samples a round, so p%.1f stands in for p99", wake.count(), 100*q)
		}
		add("wake_p99_us", wake.quantile(q)/1e3)
	}
	for name, xs := range series {
		b.put(name, xs...)
	}
	// A round's p99 sits at the knee between the spin path and the slow
	// path, and interference only ever lengthens a tail: the lower quartile
	// over rounds, the tail of the quieter rounds, repeats from run to run
	// twice as well as the median (11 % against 20 % on handoff).
	p99 := b.res.Metrics["wake_p99_us"]
	p99.Value = p99.Q1
	b.res.Metrics["wake_p99_us"] = p99
	b.put("setup_s", setup...)
	series["setup_s"] = setup
	b.res.Series = series
}

// perLayer is the traced run: the ladder's isolated rungs, the condvar
// workloads under the instruments, one pass over the kernels, and then
// this workload with plain and instrumented tmcv slices side by side.
// Nothing here feeds an end-to-end metric.
func (b *bench) perLayer() error {
	cfg := b.cfg
	reps, passes := 3, 5
	rungLen := time.Duration(cfg.seconds / 220 * float64(time.Second))
	probeLen := time.Duration(cfg.seconds / 120 * float64(time.Second))
	if cfg.quick {
		reps, passes = 1, 1
	}
	for _, r := range rungs(b.ev.procs) {
		b.put(r.name, r.measure(rungLen, reps)...)
	}
	b.workloadRungs(probeLen, reps)
	b.kernelPass(passes)
	return b.instrumented(cfg.seconds / 2)
}

// workloadRungs runs short slices of handoff, broadcast and cancel_mix with
// CVStats attached and spans recorded: the rungs that need a live waiter.
func (b *bench) workloadRungs(d time.Duration, reps int) {
	type reading struct {
		name string
		read func(o sliceOut, in instr) float64
	}
	spanP50 := func(k spanKind) func(sliceOut, instr) float64 {
		return func(_ sliceOut, in instr) float64 { d := in.spans.durations(k); return d.quantile(0.5) }
	}
	perOp := func(o sliceOut, _ instr) float64 { return float64(o.elapsed) / float64(o.ops) }
	probes := []struct {
		wl       string
		kind     facility.Kind
		readings []reading
	}{
		{"handoff", facility.LockTM, []reading{
			{"core.notify_call_p50_ns", spanP50(spSignal)},
			{"core.notify_to_wake_p50_ns", func(_ sliceOut, in instr) float64 { return histQuantile(&in.stats.NotifyToWake, 0.5) }},
			{"core.notify_to_wake_p99_ns", func(_ sliceOut, in instr) float64 { return histQuantile(&in.stats.NotifyToWake, 0.99) }},
		}},
		{"handoff", facility.LockPthread, []reading{
			{"pthreadcv.signal_call_p50_ns", spanP50(spSignal)},
			{"pthreadcv.handoff_rt_ns", perOp},
		}},
		{"broadcast", facility.LockTM, []reading{
			{"core.notify_all_call_p50_ns", spanP50(spBroadcast)},
			{"core.broadcast_last_wake_p50_ns", func(_ sliceOut, in instr) float64 { return histQuantile(&in.stats.BroadcastNanos, 0.5) }},
			{"core.wake_chain_depth_p99", func(_ sliceOut, in instr) float64 { return histQuantile(&in.stats.WakeChainDepth, 0.99) }},
		}},
		{"broadcast", facility.LockPthread, []reading{{"pthreadcv.broadcast_round_ns", perOp}}},
		{"cancel_mix", facility.LockTM, []reading{
			{"core.cancel_return_p50_ns", func(o sliceOut, _ instr) float64 { return o.cancelWake.quantile(0.5) }},
		}},
	}
	for _, p := range probes {
		wl := workloadByName(p.wl)
		in := instr{stats: &core.CVStats{}, spans: newSpanSet(wl.lanes)}
		s := b.system(wl, p.kind, in)
		b.slice(s, 0, 0, 64)
		values := map[string][]float64{}
		for i := 0; i < reps; i++ {
			in.stats.NotifyToWake.Reset()
			in.stats.BroadcastNanos.Reset()
			in.stats.WakeChainDepth.Reset()
			o := b.slice(s, 0, d, 0)
			for _, r := range p.readings {
				values[r.name] = append(values[r.name], r.read(o, in))
			}
		}
		for name, xs := range values {
			b.put(name, xs...)
		}
	}
}

// kernelPass runs every kernel once per system, passes times over.
func (b *bench) kernelPass(passes int) {
	wl := workloadByName("parsec")
	var systems []*system
	for _, k := range kinds {
		systems = append(systems, b.system(wl, k, instr{}))
	}
	b.warm(wl, systems...) // quick or not, one run: the reference checksums and a first touch
	for g, kernel := range wl.groups {
		ms := make([][]float64, len(systems))
		var ratio []float64
		for p := 0; p < passes; p++ {
			for i, s := range systems {
				o := b.slice(s, g, 0, 1)
				ms[i] = append(ms[i], o.elapsed.Seconds()*1e3)
			}
			ratio = append(ratio, ms[0][p]/ms[1][p])
		}
		for i, s := range systems {
			b.put("parsec."+kernel+".run_ms."+kindNames[s.kind], ms[i]...)
		}
		b.put("parsec."+kernel+".tmcv_ratio", ratio...)
		tmcv := systems[1].groups[g].(*parsecRun)
		b.put("parsec."+kernel+".txns_per_run", float64(tmcv.tm().commits)/float64(tmcv.runs))
	}
}

// instrumented runs this workload's tmcv system twice a round, plain and
// with CVStats and spans switched on, for budget seconds in all.
func (b *bench) instrumented(budget float64) error {
	wl := b.wl
	rounds := max(3, wl.rounds/4)
	if b.cfg.quick {
		rounds = 1
	}
	st := &core.CVStats{}
	plain := b.system(wl, facility.LockTM, instr{})
	traced := b.system(wl, facility.LockTM, instr{stats: st, spans: newSpanSet(wl.lanes)})
	b.warm(wl, plain, traced)
	slice := time.Duration(budget / float64(rounds*2*len(wl.groups)) * float64(time.Second))
	b.res.Rounds, b.res.SliceS = rounds, slice.Seconds()
	var slowdown []float64
	for r := 0; r < rounds; r++ {
		var ratios []float64
		for g := range wl.groups {
			p := b.slice(plain, g, slice, 0)
			t := b.slice(traced, g, slice, 0)
			ratios = append(ratios, p.opsPerSec()/t.opsPerSec())
		}
		slowdown = append(slowdown, geomean(ratios))
	}
	b.put("obs.traced_slowdown", slowdown...)

	ops := float64(traced.ops)
	b.put("sem.parks_per_op", float64(st.Sem.Blocks.Load())/ops)
	b.put("sem.spin_waits_per_op", float64(st.Sem.SpinWaits.Load())/ops)
	b.put("sem.fast_waits_per_op", float64(st.Sem.FastWaits.Load())/ops)
	park := dist{hist: st.Sem.ParkNanos.Snapshot()}
	b.put("sem.park_p50_ns", park.quantile(0.5))
	b.put("sem.park_p99_ns", b.tail("sem.park_p99_ns", &park))
	tm := traced.tm()
	b.put("stm.txns_per_op", float64(tm.commits)/ops)
	b.put("stm.aborts_per_kcommit", 1000*float64(tm.aborts)/max(float64(tm.commits), 1))
	b.put("stm.serial_commits_per_op", float64(tm.serial)/ops)
	b.put("stm.early_commits_per_op", float64(tm.early)/ops)
	b.put("stm.commit_p50_ns", tm.commitNs.quantile(0.5))
	b.put("stm.commit_p99_ns", b.tail("stm.commit_p99_ns", &tm.commitNs))

	// The spans of the last traced slice are what the run keeps.
	b.res.Notes = append(b.res.Notes, traced.in.spans.summary()...)
	path := filepath.Join(b.cfg.dir, "out", "spans-"+wl.name+".jsonl")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	if err := traced.in.spans.write(path); err != nil {
		return err
	}
	b.note("spans written to %s", path)
	return nil
}
