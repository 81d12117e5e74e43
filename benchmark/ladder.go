package main

import (
	"context"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/sem"
	"repro/internal/stm"
	"repro/internal/syncx"
)

// rung is an isolated probe of one layer's public functions: body performs
// n calls and returns the time they took.
type rung struct {
	name string
	body func(n int) time.Duration
}

// timed is a rung body for a plain loop.
func timed(loop func(n int)) func(int) time.Duration {
	return func(n int) time.Duration {
		start := time.Now()
		loop(n)
		return time.Since(start)
	}
}

// measure sizes n so that one repetition lasts about d, then returns the
// ns per call of each of reps repetitions.
func (r rung) measure(d time.Duration, reps int) []float64 {
	n, per := 16, 0.0
	for {
		el := r.body(n)
		per = float64(el) / float64(n)
		if el >= d/8 || n >= 1<<28 {
			break
		}
		n *= 4
	}
	n = max(1, int(float64(d)/max(per, 0.1)))
	out := make([]float64, reps)
	for i := range out {
		out[i] = float64(r.body(n)) / float64(n)
	}
	return out
}

// parallel runs f on procs goroutines and waits for them.
func parallel(procs int, f func()) {
	var wg sync.WaitGroup
	for g := 0; g < procs; g++ {
		wg.Add(1)
		go func() { defer wg.Done(); f() }()
	}
	wg.Wait()
}

var sink int64 // keeps a loop's result alive

// calib is the yardstick the other rungs are divided by, so that budgets
// travel across hosts: 1000 steps of a fixed integer recurrence per call.
var calib = rung{"bench.calib_ns", timed(func(n int) {
	x := uint64(88172645463325252)
	for i := 0; i < 1000*n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	sink = int64(x)
})}

func rungs(procs int) []rung {
	e := stm.NewEngine(stm.Config{Algorithm: stm.AlgWriteThrough})
	vars := make([]*stm.Var[int64], 8)
	for i := range vars {
		vars[i] = stm.NewVar(e, int64(i))
	}
	read8 := func(tx *stm.Tx) {
		var s int64
		for _, v := range vars {
			s += stm.Read(tx, v)
		}
		sink = s
	}
	update1 := func(tx *stm.Tx) { stm.Write(tx, vars[0], stm.Read(tx, vars[0])+1) }
	cv := core.New(e, core.Options{})
	var mu syncx.Mutex

	rs := []rung{
		calib,
		{"bench.timer_ns", timed(func(n int) { // what one span costs: two clock reads and a store
			l := newSpanSet(1).lane(0)
			for i := 0; i < n; i++ {
				l.add(spOp, 0, l.now())
			}
		})},
		{"sem.post_wait_uncontended_ns", timed(func(n int) {
			s := sem.NewBinary()
			for i := 0; i < n; i++ {
				s.Post()
				s.Wait()
			}
		})},
		{"sem.handoff_ns", timed(func(n int) { // Post → the peer's Wait returns; two per turn
			a, b := sem.NewBinary(), sem.NewBinary()
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < n; i += 2 {
					a.Wait()
					b.Post()
				}
			}()
			for i := 0; i < n; i += 2 {
				a.Post()
				b.Wait()
			}
			wg.Wait()
		})},
		{"sem.cancel_loser_ns", func(n int) time.Duration { // cancel() → WaitCtx returns false
			s := sem.NewBinary()
			var total int64
			for i := 0; i < n; i++ {
				ctx, cancel := context.WithCancel(context.Background())
				back := make(chan int64, 1)
				go func() {
					s.WaitCtx(ctx)
					back <- nanotime()
				}()
				for s.Waiters() == 0 {
					runtime.Gosched()
				}
				t0 := nanotime()
				cancel()
				total += <-back - t0
			}
			return time.Duration(total)
		}},
		{"stm.atomic_empty_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				_ = e.Atomic(func(*stm.Tx) {}) // no Cancel in the body, so no error
			}
		})},
		{"stm.atomic_read8_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				_ = e.AtomicRead(read8)
			}
		})},
		{"stm.atomic_update1_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				_ = e.Atomic(update1)
			}
		})},
		{"syncx.mutex_uncontended_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				mu.Lock()
				mu.Unlock()
			}
		})},
		{"syncx.mutex_contended_ns", timed(func(n int) {
			parallel(procs, func() {
				for i := 0; i < n; i += procs {
					mu.Lock()
					mu.Unlock()
				}
			})
		})},
		{"core.notify_one_empty_ns", timed(func(n int) {
			for i := 0; i < n; i++ {
				cv.NotifyOne(nil)
			}
		})},
	}
	for _, k := range kinds {
		tk := newToolkit(k, instr{})
		q := facility.NewQueue[int64](tk, 2*nowaitBatch)
		bar := facility.NewBarrier(tk, procs)
		rs = append(rs,
			rung{"facility.queue_op_ns." + kindNames[k], timed(func(n int) {
				for i := 0; i < n; i += 2 {
					q.Put(int64(i))
					q.Get()
				}
			})},
			rung{"facility.barrier_round_ns." + kindNames[k], timed(func(n int) {
				parallel(procs, func() {
					for i := 0; i < n; i++ {
						bar.Arrive()
					}
				})
			})},
			rung{"facility.taskqueue_op_ns." + kindNames[k], timed(func(n int) {
				tq := facility.NewTaskQueue(tk, procs)
				for i := 0; i < n; i++ {
					tq.Submit(func() {})
				}
				tq.Drain()
				tq.Close()
			})})
	}
	return rs
}
