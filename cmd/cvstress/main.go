// Command cvstress validates the condition-variable implementations under
// sustained load. It has two modes:
//
//	-mode chaos      duration-bounded soak with the deterministic fault
//	                 injector armed across every hook point (forced
//	                 aborts, capacity aborts, delayed wake-ups and
//	                 lost-wakeup windows): a bounded-buffer conservation
//	                 workload plus timed- and context-cancellation race
//	                 probes run under LockTM and Txn, followed by a
//	                 sem-layer conservation probe (timed/cancel losers
//	                 racing Post on one shared semaphore). -seed fixes the
//	                 injected fault sequence (the injector's decisions are
//	                 a pure function of seed, point and arrival index);
//	                 -faultrate and -duration bound the storm. On failure
//	                 the exact replay command is printed. -trace writes
//	                 the run's Chrome trace, validates its causal wake
//	                 flows in-run, and prints the cvtrace command that
//	                 analyzes it offline; failure flight dumps carry the
//	                 trace path in their detail block.
//
//	-mode blackbox   seeded action scripts drive the facility layer (task
//	                 queue, bounded queue, pool, barrier, broadcast
//	                 rounds) while an in-memory expected-state oracle
//	                 (internal/oracle) shadows every operation of the
//	                 live run; -buglostwake injects an intentional
//	                 lost-wakeup bug the gate must catch. DESIGN.md §14.
//
// Exit status taxonomy (all modes):
//
//	0  clean run
//	1  setup error (unknown mode, bad flags)
//	2  invariant violation / oracle divergence
//	3  timeout: a facility hung or a waiter stayed parked through the drain
//
// Every non-zero exit prints a "replay:" line naming the exact command
// that reproduces the run. SIGTERM/SIGINT initiate a graceful drain: the
// duration-bounded loops end early, the facilities are drained and
// closed, and the run exits 0 with its parked-waiter count reported.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/obs/introspect"
	"repro/internal/obs/registry"
	"repro/internal/sem"
	"repro/internal/stm"
	"repro/internal/syncx"
	"repro/internal/waketrace"
)

// Exit codes (see the package comment).
const (
	exitOK        = 0
	exitSetup     = 1
	exitInvariant = 2
	exitStuck     = 3
)

// worseCode picks the more severe of two exit codes: invariant
// violations outrank stuck waiters, which outrank setup errors.
func worseCode(a, b int) int {
	rank := func(c int) int {
		switch c {
		case exitInvariant:
			return 3
		case exitStuck:
			return 2
		case exitSetup:
			return 1
		}
		return 0
	}
	if rank(b) > rank(a) {
		return b
	}
	return a
}

// stopFlag is set by the first SIGTERM/SIGINT: duration-bounded loops
// treat it as an early deadline, so the run drains gracefully instead of
// dying mid-workload.
var stopFlag atomic.Bool

// running reports whether a duration-bounded soak loop should continue.
func running(deadline time.Time) bool {
	return !stopFlag.Load() && time.Now().Before(deadline)
}

// waitUntil polls cond until it holds or d elapses.
func waitUntil(cond func() bool, d time.Duration) bool {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(200 * time.Microsecond)
	}
	return true
}

// awaitOrStuck runs wait in the background and reports false if it has
// not returned within d — the caller treats that as a hung facility.
func awaitOrStuck(d time.Duration, wait func()) bool {
	done := make(chan struct{})
	go func() { wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

func main() {
	mode := flag.String("mode", "chaos", "chaos | blackbox")
	goroutines := flag.Int("goroutines", 8, "concurrency level")
	seed := flag.Uint64("seed", 0xC4A05, "chaos/blackbox mode: workload + fault injector seed")
	faultrate := flag.Float64("faultrate", 0.2, "chaos/blackbox mode: per-hook-point injection probability (0 disables)")
	duration := flag.Duration("duration", 2*time.Second, "chaos/blackbox mode: soak time per system")
	introspectAddr := flag.String("introspect", "", "serve /debug/cv/* live-introspection endpoints on this address (e.g. 127.0.0.1:0)")
	dumpDir := flag.String("dumpdir", "", "chaos/blackbox mode: flight-recorder dump directory (default: system temp)")
	tracePath := flag.String("trace", "", "chaos mode: write the run's Chrome trace here and validate its wake flows (analyze with cmd/cvtrace)")
	traceBuf := flag.Int("tracebuf", 1<<16, "chaos mode: tracer ring-buffer capacity in events")
	bugLostWake := flag.Bool("buglostwake", false, "blackbox mode: inject an intentional lost-wakeup bug (broadcasts wake one waiter short) that the oracle gate must catch")
	flag.Parse()

	// First SIGTERM/SIGINT drains gracefully; a second one gets the
	// default (fatal) disposition back.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGTERM, syscall.SIGINT)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "cvstress: %v: draining\n", s)
		stopFlag.Store(true)
		signal.Stop(sigc)
	}()

	if *introspectAddr != "" {
		srv, err := introspect.Start(introspect.Options{Addr: *introspectAddr})
		if err != nil {
			fmt.Fprintln(os.Stderr, "cvstress:", err)
			os.Exit(exitSetup)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "cvstress: introspect: listening on %s\n", srv.Addr())
	}

	var code int
	switch *mode {
	case "chaos":
		code = runChaos(*goroutines, *seed, *faultrate, *duration, *dumpDir, *tracePath, *traceBuf)
	case "blackbox":
		code = runBlackbox(blackboxConfig{
			goroutines:  *goroutines,
			seed:        *seed,
			faultrate:   *faultrate,
			duration:    *duration,
			dumpDir:     *dumpDir,
			bugLostWake: *bugLostWake,
		})
	default:
		fmt.Fprintf(os.Stderr, "cvstress: unknown mode %q\n", *mode)
		os.Exit(exitSetup)
	}
	if code != exitOK {
		replay := fmt.Sprintf("go run ./cmd/cvstress -mode %s -seed %d -goroutines %d -faultrate %g -duration %s",
			*mode, *seed, *goroutines, *faultrate, *duration)
		if *bugLostWake {
			replay += " -buglostwake"
		}
		fmt.Printf("replay: %s\n", replay)
		fmt.Printf("RESULT: FAIL (exit %d)\n", code)
		os.Exit(code)
	}
	fmt.Println("RESULT: OK")
}

// chaosRules builds the injection plan for one chaos soak: forced
// conflicts at transaction begin and orec acquisition, simulated
// capacity aborts at pre-commit, and delayed wake-ups / widened
// lost-wakeup windows at every semaphore and condvar hook point.
func chaosRules(seed uint64, rate float64) *fault.Injector {
	stall := fault.Rule{Rate: rate, Action: fault.ActDelay, Delay: 100 * time.Microsecond}
	return fault.New(seed).
		Set(fault.TxBegin, fault.Rule{Rate: rate / 2, Action: fault.ActAbort}).
		Set(fault.OrecAcquire, fault.Rule{Rate: rate, Action: fault.ActAbort}).
		Set(fault.PreCommit, fault.Rule{Rate: rate / 2, Action: fault.ActCapacity}).
		Set(fault.SemPost, stall).
		Set(fault.SemPark, stall).
		Set(fault.CVEnqueue, stall).
		Set(fault.CVNotify, stall)
}

// runChaos soaks the TM-condvar systems under deterministic fault
// injection: a bounded-buffer conservation workload (no item lost or
// duplicated, checked by count, sum and sum-of-squares) with concurrent timed-wait and
// context-cancellation race probes, all on the same engine the injector
// is attacking — then a conservation probe on the raw sem layer
// (runSemChaos).
func runChaos(goroutines int, seed uint64, rate float64, dur time.Duration, dumpDir, tracePath string, traceBuf int) int {
	// Chaos always runs fully instrumented: every engine, condvar and
	// fault point registers into the process registry (scraped live when
	// -introspect is up), a tracer records the event lifecycle, and a
	// flight recorder stands by so a failure leaves a forensic dump next
	// to the replay line.
	reg := registry.Default
	if reg.Tracer() == nil {
		tr := obs.NewTracer(traceBuf)
		tr.Enable()
		reg.SetTracer(tr)
	}
	rec := introspect.NewRecorder(dumpDir, reg)
	code := exitOK
	for _, kind := range []facility.Kind{facility.LockTM, facility.Txn} {
		code = worseCode(code, runChaosKind(kind, goroutines, seed, rate, dur, reg))
	}
	code = worseCode(code, runSemChaos(goroutines, seed, rate, dur))
	// -trace: dump the ring for offline analysis and validate the wake
	// flows in-run. Each trace shard keeps its last N events, so flows
	// that began at or before the retention horizon may lack their root
	// or some posts — those are truncation, not corruption, and are
	// skipped (cvtrace -check does the same from the dumped horizon).
	detail := map[string]any{"seed": seed, "faultrate": rate, "goroutines": goroutines}
	if tracePath != "" {
		tr := reg.Tracer()
		if err := tr.WriteChromeTraceFile(tracePath); err != nil {
			fmt.Fprintln(os.Stderr, "cvstress: trace write failed:", err)
			code = worseCode(code, exitSetup)
		} else {
			detail["trace"] = tracePath
			complete, truncated, problems := waketrace.CheckTracer(tr)
			if len(problems) != 0 {
				for _, p := range problems {
					fmt.Fprintln(os.Stderr, "cvstress: wake-flow violation:", p)
				}
				code = worseCode(code, exitInvariant)
			}
			fmt.Printf("trace: %s (%d wake flows, %d truncated at window start)\n",
				tracePath, len(complete), len(truncated))
			fmt.Printf("analyze: go run ./cmd/cvtrace -check %s\n", tracePath)
		}
	}
	if code != exitOK {
		if path, err := rec.Trigger("chaos-failure", detail); err == nil && path != "" {
			fmt.Printf("flight dump: %s\n", path)
			fmt.Printf("analyze: go run ./cmd/cvtrace -check %s\n", path)
		} else if err != nil {
			fmt.Fprintln(os.Stderr, "cvstress: flight dump failed:", err)
		}
	}
	return code
}

func runChaosKind(kind facility.Kind, goroutines int, seed uint64, rate float64, dur time.Duration, reg *registry.Registry) int {
	e := stm.NewEngine(stm.Config{Name: "chaos/" + kind.Short()})
	in := chaosRules(seed, rate)
	e.SetFault(in)
	in.Arm()
	defer in.Disarm()
	e.SetTracer(reg.Tracer())
	e.RegisterMetrics(reg)
	in.RegisterMetrics(reg, registry.Labels{"engine": e.Name()})
	cvStats := &core.CVStats{}
	cvStats.RegisterMetrics(reg, registry.Labels{"engine": e.Name()})
	tk := &facility.Toolkit{Kind: kind, Engine: e, CVStats: cvStats,
		Introspect: reg, IntrospectPrefix: e.Name()}

	deadline := time.Now().Add(dur)

	// Conservation workload: producers feed a bounded buffer until the
	// deadline; every item must come out exactly once (count, sum and
	// sum-of-squares all conserved).
	q := facility.NewQueue[int](tk, 8)
	producers := goroutines / 2
	if producers == 0 {
		producers = 1
	}
	var produced, consumed atomic.Int64
	var prodSum, consSum atomic.Int64
	var prodSq, consSq atomic.Int64
	var prodWg, consWg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		prodWg.Add(1)
		go func() {
			defer prodWg.Done()
			for i := 0; running(deadline); i++ {
				x := p<<24 | i
				q.Put(x)
				produced.Add(1)
				prodSum.Add(int64(x))
				prodSq.Add(int64(x) * int64(x) % (1 << 31))
			}
		}()
	}
	for c := 0; c < producers; c++ {
		consWg.Add(1)
		go func() {
			defer consWg.Done()
			for {
				x, okGet := q.Get()
				if !okGet {
					return
				}
				consumed.Add(1)
				consSum.Add(int64(x))
				consSq.Add(int64(x) * int64(x) % (1 << 31))
			}
		}()
	}

	// Attribution probe: a few goroutines hammer one named Var with
	// read-modify-write transactions while the injector stalls the orec
	// hook points underneath, so this Var draws conflicts by design. It
	// gives /debug/cv/conflicts a known-hot row ("chaos.hot") that the
	// verify.sh attribution smoke asserts ranks on the table.
	hot := stm.NewVarNamed(e, "chaos.hot", 0)
	var hotWg sync.WaitGroup
	for h := 0; h < 4; h++ {
		hotWg.Add(1)
		go func() {
			defer hotWg.Done()
			for running(deadline) {
				e.MustAtomic(func(tx *stm.Tx) {
					stm.Write(tx, hot, stm.Read(tx, hot)+1)
				})
			}
		}()
	}

	// Race probes on the same injected engine: the timed-wait race and
	// the cancellation race, each holding the lost/spurious invariant.
	// Both probe condvars are named so their queue aborts get their own
	// rows on /debug/cv/conflicts instead of folding into (unattributed).
	cv := core.New(e, core.Options{}).SetName("chaos.probe")
	cv.SetStats(cvStats)
	cv.RegisterIntrospect(reg, e.Name()+"/probe")
	// Broadcast probe state: a separate condvar with a wide wait set, woken
	// by single NotifyAll batches while the injector stalls the
	// post/park/notify hook points underneath.
	bcv := core.New(e, core.Options{}).SetName("chaos.bcast")
	bcv.SetStats(cvStats)
	var bm syncx.Mutex
	bgen := 0
	var broadcasts, bwoken int
	var bstuck int
	var m syncx.Mutex
	var races, lost, spurious int
	var cancels, cancelRaces int
	for i := 0; running(deadline); i++ {
		// Timed probe (every iteration): notify vs a short timeout.
		res := make(chan bool, 1)
		go func(d time.Duration) {
			m.Lock()
			// cvlint:ignore waitloop harness probes the timeout/notify race one-shot by design
			got := cv.WaitLockedTimeout(&m, d)
			m.Unlock()
			res <- got
		}(time.Duration(i%5) * 100 * time.Microsecond)
		time.Sleep(time.Duration(i%7) * 50 * time.Microsecond)
		notified := cv.NotifyOne(nil)
		got := <-res
		races++
		if notified && !got {
			lost++
		}
		if !notified && got {
			spurious++
		}

		// Cancellation probe: cancel races a notify; a notifier that
		// claimed the waiter must be observed, a cancel that won must
		// leave nothing behind.
		ctx, cancel := context.WithCancel(context.Background())
		go func() {
			m.Lock()
			// cvlint:ignore waitloop harness probes the cancel/notify race one-shot by design
			got := cv.WaitLockedCtx(&m, ctx)
			m.Unlock()
			res <- got
		}()
		for cv.Len() == 0 && time.Now().Before(deadline.Add(time.Second)) {
			time.Sleep(10 * time.Microsecond)
		}
		var found bool
		var pwg sync.WaitGroup
		pwg.Add(2)
		go func() { defer pwg.Done(); found = cv.NotifyOne(nil) }()
		go func() { defer pwg.Done(); cancel() }()
		pwg.Wait()
		got = <-res
		cancelRaces++
		if found != got {
			if found {
				lost++
			} else {
				spurious++
			}
		}
		if !got {
			cancels++
		}

		// Broadcast probe (every 16th iteration): park a wide wait set
		// behind a generation predicate, flip the generation, and wake the
		// whole batch with one NotifyAll. The generation is read and the
		// wait entered under one lock hold, so every waiter either parks
		// before the flip (and must be in the batch) or observes the new
		// generation and never sleeps — any waiter still parked after the
		// broadcast is a lost wake-up in the batch post loop.
		if i%16 == 5 {
			const wide = 48
			start := bgen
			resumed := make(chan struct{})
			var bwg sync.WaitGroup
			bwg.Add(wide)
			for w := 0; w < wide; w++ {
				go func() {
					defer bwg.Done()
					bm.Lock()
					for bgen == start {
						bcv.WaitLocked(&bm)
					}
					bm.Unlock()
				}()
			}
			for bcv.Len() < wide && time.Now().Before(deadline.Add(time.Second)) {
				time.Sleep(10 * time.Microsecond)
			}
			bm.Lock()
			bgen++
			bm.Unlock()
			bwoken += bcv.NotifyAll(nil)
			broadcasts++
			go func() { bwg.Wait(); close(resumed) }()
			select {
			case <-resumed:
			case <-time.After(5 * time.Second):
				bstuck++ // a waiter never resumed: lost broadcast wake
			}
		}
	}

	// Drain: wait for the producers to retire first — one may still be
	// blocked in Put past the deadline with its item not yet counted —
	// then for consumption to catch up, and only then close the queue.
	hotWg.Wait()
	prodWg.Wait()
	drained := waitUntil(func() bool { return consumed.Load() >= produced.Load() }, 30*time.Second)
	q.Close()
	if drained {
		consWg.Wait()
	}

	conserved := produced.Load() == consumed.Load() &&
		prodSum.Load() == consSum.Load() && prodSq.Load() == consSq.Load()
	kindOK := conserved && lost == 0 && spurious == 0 && bstuck == 0
	fmt.Printf("%-22s: %d items conserved=%v | timed=%d cancel=%d (cancelled=%d) lost=%d spurious=%d | broadcasts=%d woke=%d stuck=%d | faults=%d commits=%d aborts=%d serial=%d\n",
		kind, produced.Load(), conserved, races, cancelRaces, cancels, lost, spurious,
		broadcasts, bwoken, bstuck,
		in.FiredTotal(), e.Stats.Commits.Load(), e.Stats.Aborts.Load(), e.Stats.SerialCommits.Load())
	if !drained {
		fmt.Printf("%-22s: STUCK in queue drain (consumed %d of %d produced)\n",
			kind, consumed.Load(), produced.Load())
		return exitStuck
	}
	if !kindOK {
		return exitInvariant
	}
	return exitOK
}

// runSemChaos is the sem-layer conservation probe: one shared
// semaphore absorbs untimed, timed and cancelled waiters racing Post
// while the injector stalls the post/park hook points underneath.
// Permits are conserved by construction — every posted permit must
// surface as exactly one successful wait (including timeout/cancel
// losers that keep a raced permit) or one banked permit — and no
// waiter may remain parked once the soak drains.
func runSemChaos(goroutines int, seed uint64, rate float64, dur time.Duration) int {
	s := sem.New(0)
	in := chaosRules(seed, rate)
	s.SetFault(in)
	in.Arm()
	defer in.Disarm()

	if goroutines < 4 {
		goroutines = 4
	}
	deadline := time.Now().Add(dur)
	var succ, timeouts, cancels, posted, untimed atomic.Int64

	// Waiter pool: a third of the goroutines wait untimed — the spin
	// and park path syncx.Mutex takes — and the rest split timed and
	// cancelled waits evenly, with jittered budgets so losers and
	// winners interleave in the queue.
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		if g%3 == 2 {
			untimed.Add(1)
			go func() {
				defer wg.Done()
				defer untimed.Add(-1)
				for running(deadline) {
					s.Wait()
					succ.Add(1)
				}
			}()
			continue
		}
		go func() {
			defer wg.Done()
			for i := 0; running(deadline); i++ {
				if (g+i)%2 == 0 {
					d := time.Duration((i%5)+1) * 100 * time.Microsecond
					if s.WaitTimeout(d) {
						succ.Add(1)
					} else {
						timeouts.Add(1)
					}
				} else {
					ctx, cancel := context.WithCancel(context.Background())
					go func(after time.Duration) {
						time.Sleep(after)
						cancel()
					}(time.Duration(i%7) * 50 * time.Microsecond)
					if s.WaitCtx(ctx) {
						succ.Add(1)
					} else {
						cancels.Add(1)
					}
					cancel()
				}
			}
		}()
	}

	// Posters: singles and bursts of three, racing the losers above for
	// the head of the queue.
	var pwg sync.WaitGroup
	for p := 0; p < 2; p++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := 0; running(deadline); i++ {
				n := 1
				if i%4 == 3 {
					n = 3
				}
				for ; n > 0; n-- {
					s.Post()
					posted.Add(1)
				}
				if i%8 == 0 {
					time.Sleep(20 * time.Microsecond)
				}
			}
		}()
	}

	pwg.Wait()
	// An untimed waiter cannot give up: post one permit at a time, each
	// counted, until every untimed goroutine has seen the deadline and
	// returned. A permit nobody needed is banked and still balances.
	drainBy := time.Now().Add(30 * time.Second)
	for untimed.Load() > 0 {
		if time.Now().After(drainBy) {
			fmt.Printf("%-22s: STUCK draining untimed waiters (%d still parked)\n", "sem/queue", s.Waiters())
			return exitStuck
		}
		s.Post()
		posted.Add(1)
		time.Sleep(100 * time.Microsecond)
	}
	// The timed and cancellable rest drain on their own — a waiter
	// still parked past the grace period is stranded in the queue.
	if !awaitOrStuck(30*time.Second, wg.Wait) {
		fmt.Printf("%-22s: STUCK draining waiters (%d still parked)\n", "sem/queue", s.Waiters())
		return exitStuck
	}
	banked := s.Value()
	conserved := posted.Load() == succ.Load()+banked
	fmt.Printf("%-22s: posted=%d | waits=%d timeouts=%d cancels=%d banked=%d conserved=%v stranded=%d | faults=%d\n",
		"sem/queue", posted.Load(), succ.Load(),
		timeouts.Load(), cancels.Load(), banked, conserved, s.Waiters(), in.FiredTotal())
	if !conserved || s.Waiters() != 0 {
		return exitInvariant
	}
	return exitOK
}
