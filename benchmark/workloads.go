package main

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/facility"
	"repro/internal/parsec"
	"repro/internal/stm"
	"repro/internal/syncx"
)

// The systems under test, in the order a round runs them.
var kinds = facility.Kinds // pthread, tmcv, txn

var kindNames = map[facility.Kind]string{
	facility.LockPthread: "pthread", facility.LockTM: "tmcv", facility.Txn: "txn",
}

// instr is the set of instruments attached to one system. End-to-end
// slices run with the zero value: nothing attached, no clock read added.
type instr struct {
	stats *core.CVStats // handed to every TM condvar through the toolkit
	spans *spanSet      // the drivers record a span round each call into a layer
}

// env is what a workload builds its systems from.
type env struct {
	seed  uint64
	procs int     // GOMAXPROCS
	scale float64 // kernel input size: 1.0, the paper's test scale, unless the run is a smoke test

	mu        sync.Mutex
	checksums map[string]uint64 // pthread checksum per kernel, the reference
}

func newEnv(cfg config) *env {
	ev := &env{seed: cfg.seed, procs: runtime.GOMAXPROCS(0), scale: 1.0, checksums: map[string]uint64{}}
	if cfg.quick {
		ev.scale = 0.25
	}
	return ev
}

func newToolkit(k facility.Kind, in instr) *facility.Toolkit {
	tk := &facility.Toolkit{Kind: k, CVStats: in.stats}
	if k != facility.LockPthread {
		// Westmere in the paper's terms: the software write-through engine.
		tk.Engine = stm.NewEngine(stm.Config{Algorithm: stm.AlgWriteThrough})
	}
	return tk
}

// sliceOut is what one slice of one system did.
type sliceOut struct {
	ops, failed int64
	elapsed     time.Duration
	wake        dist // notify (or cancel) start → woken waiter holds its lock again
	cancelWake  dist // cancel_mix only: the cancelled share of wake
}

func (o sliceOut) opsPerSec() float64 { return float64(o.ops) / o.elapsed.Seconds() }

// tmTotals is the transaction activity of a system's engines so far.
type tmTotals struct {
	commits, aborts, serial, early int64
	commitNs                       dist
}

func (t *tmTotals) add(o tmTotals) {
	t.commits += o.commits
	t.aborts += o.aborts
	t.serial += o.serial
	t.early += o.early
	t.commitNs.add(o.commitNs)
}

func (t *tmTotals) addEngine(e *stm.Engine) {
	if e == nil {
		return
	}
	st := &e.Stats
	t.add(tmTotals{st.Commits.Load(), st.Aborts.Load(), st.SerialCommits.Load(), st.EarlyCommits.Load(),
		dist{hist: st.CommitNanos.Snapshot()}})
}

// runner drives one workload on one system.
type runner interface {
	// run drives ops until d has passed or maxOps are done (0: no cap),
	// checks them, and stops every goroutine it started.
	run(d time.Duration, maxOps int64) sliceOut
	// tm reports the system's transaction activity since it was built.
	tm() tmTotals
}

// budget ends a slice: by time, by op count, or both.
type budget struct {
	hit    atomic.Bool
	timer  *time.Timer
	maxOps int64
}

func newBudget(d time.Duration, maxOps int64) *budget {
	b := &budget{maxOps: maxOps}
	if d > 0 {
		b.timer = time.AfterFunc(d, func() { b.hit.Store(true) })
	}
	return b
}

func (b *budget) more(done int64) bool {
	return !b.hit.Load() && (b.maxOps == 0 || done < b.maxOps)
}

func (b *budget) stop() {
	if b.timer != nil {
		b.timer.Stop()
	}
}

// sampleMask thins the wake-latency clock reads to one op in eight, so
// that timing costs the fast baseline no more than it costs the others.
const sampleMask = 7

// stamp marks the start of a sampled notify; take, in the woken waiter,
// turns it into a latency sample.
func stamp(t0 *int64, op int64) {
	if op&sampleMask == 0 {
		*t0 = nanotime()
	}
}

func take(d *dist, t0 *int64) {
	if *t0 != 0 {
		d.samples = append(d.samples, nanotime()-*t0)
		*t0 = 0
	}
}

// coin decides, from the seed and the op number alone, whether cancel_mix
// notifies (true) or cancels op i.
func coin(seed uint64, i int64) bool {
	x := seed + uint64(i)*0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return (x^(x>>31))&1 == 0
}

// ---- handoff: two goroutines pass a numbered token through one condvar.

type lockHandoff struct {
	in         instr
	e          *stm.Engine
	mu         syncx.Mutex
	cv         facility.Cond
	ping, pong int64 // last token sent each way; tokens count up from 1
	stop       bool
	t0         int64
}

func newLockHandoff(k facility.Kind, in instr) *lockHandoff {
	tk := newToolkit(k, in)
	return &lockHandoff{in: in, e: tk.Engine, cv: tk.NewCond()}
}

func (h *lockHandoff) tm() (t tmTotals) { t.addEngine(h.e); return }

func (h *lockHandoff) run(d time.Duration, maxOps int64) sliceOut {
	var out, peer sliceOut
	la, lb := h.in.spans.lane(0), h.in.spans.lane(1)
	base := h.pong
	h.stop = false
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the peer echoes every token it is handed
		defer wg.Done()
		h.mu.Lock()
		for want := base + 1; ; want++ {
			for h.ping < want && !h.stop {
				t := lb.now()
				h.cv.Wait(&h.mu)
				lb.add(spWait, want, t)
			}
			if h.stop {
				break
			}
			take(&peer.wake, &h.t0)
			if h.ping != want {
				peer.failed++
			}
			h.pong = h.ping
			stamp(&h.t0, want)
			t := lb.now()
			h.cv.Signal()
			lb.add(spSignal, want, t)
		}
		h.mu.Unlock()
	}()
	b := newBudget(d, maxOps)
	start := time.Now()
	for i := base + 1; b.more(out.ops); i++ {
		top := la.now()
		h.mu.Lock()
		h.ping = i
		stamp(&h.t0, i)
		t := la.now()
		h.cv.Signal()
		la.add(spSignal, i, t)
		for h.pong < i {
			t := la.now()
			h.cv.Wait(&h.mu)
			la.add(spWait, i, t)
		}
		take(&out.wake, &h.t0)
		if h.pong != i {
			out.failed++
		}
		h.mu.Unlock()
		la.add(spOp, i, top)
		out.ops++
	}
	out.elapsed = time.Since(start)
	b.stop()
	h.mu.Lock()
	h.stop = true
	h.cv.Signal()
	h.mu.Unlock()
	wg.Wait()
	out.failed += peer.failed
	out.wake.add(peer.wake)
	return out
}

// txnHandoff is handoff with the locks replaced by transactions: the token
// lives in stm.Vars and every wait is a WaitTx re-check loop.
type txnHandoff struct {
	e          *stm.Engine
	cv         *core.TxCond
	ping, pong *stm.Var[int64]
	stop       *stm.Var[bool]
	t0         atomic.Int64
	sent       int64 // the last token of the previous slice
}

func newTxnHandoff(in instr) *txnHandoff {
	tk := newToolkit(facility.Txn, in)
	e := tk.Engine
	return &txnHandoff{e: e, cv: core.NewTxCond(tk.NewCondVar()),
		ping: stm.NewVar(e, int64(0)), pong: stm.NewVar(e, int64(0)), stop: stm.NewVar(e, false)}
}

func (h *txnHandoff) tm() (t tmTotals) { t.addEngine(h.e); return }

// await blocks until v has reached want or stop is set, and returns v.
func (h *txnHandoff) await(v *stm.Var[int64], want int64) (got int64, stopped bool) {
	for done := false; !done; {
		h.e.MustAtomic(func(tx *stm.Tx) {
			done = false // an aborted attempt may have set it
			if stopped = stm.Read(tx, h.stop); stopped {
				done = true
				return
			}
			if got = stm.Read(tx, v); got >= want {
				done = true
				return
			}
			h.cv.Wait(tx)
		})
	}
	return got, stopped
}

func (h *txnHandoff) send(v *stm.Var[int64], token int64) {
	if token&sampleMask == 0 {
		h.t0.Store(nanotime())
	}
	h.e.MustAtomic(func(tx *stm.Tx) {
		stm.Write(tx, v, token)
		h.cv.Signal(tx)
	})
}

func (h *txnHandoff) takeWake(d *dist) {
	if t0 := h.t0.Swap(0); t0 != 0 {
		d.samples = append(d.samples, nanotime()-t0)
	}
}

func (h *txnHandoff) run(d time.Duration, maxOps int64) sliceOut {
	var out, peer sliceOut
	base := h.sent
	h.e.MustAtomic(func(tx *stm.Tx) { stm.Write(tx, h.stop, false) })
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for want := base + 1; ; want++ {
			got, stopped := h.await(h.ping, want)
			if stopped {
				return
			}
			h.takeWake(&peer.wake)
			if got != want {
				peer.failed++
			}
			h.send(h.pong, got)
		}
	}()
	b := newBudget(d, maxOps)
	start := time.Now()
	for i := base + 1; b.more(out.ops); i++ {
		h.send(h.ping, i)
		got, _ := h.await(h.pong, i)
		h.takeWake(&out.wake)
		if got != i {
			out.failed++
		}
		out.ops++
	}
	out.elapsed = time.Since(start)
	b.stop()
	h.sent = base + out.ops
	h.e.MustAtomic(func(tx *stm.Tx) {
		stm.Write(tx, h.stop, true)
		h.cv.Signal(tx)
	})
	wg.Wait()
	out.failed += peer.failed
	out.wake.add(peer.wake)
	return out
}

// ---- broadcast: one notifier releases 16 parked waiters per op.

const waiters = 16

type lockBroadcast struct {
	in              instr
	e               *stm.Engine
	mu              syncx.Mutex
	cv, done        facility.Cond // waiters park on cv; the notifier on done
	gen             int64         // the round; a waiter is released when it changes
	parked, arrived int
	stop            bool
	t0              int64
	wake            dist
}

func newLockBroadcast(k facility.Kind, in instr) *lockBroadcast {
	tk := newToolkit(k, in)
	return &lockBroadcast{in: in, e: tk.Engine, cv: tk.NewCond(), done: tk.NewCond()}
}

func (b *lockBroadcast) tm() (t tmTotals) { t.addEngine(b.e); return }

// awaitAll blocks the notifier, which holds mu, until *n waiters have
// parked or checked in.
func (b *lockBroadcast) awaitAll(n *int) {
	for *n < waiters {
		b.done.Wait(&b.mu)
	}
}

func (b *lockBroadcast) run(d time.Duration, maxOps int64) sliceOut {
	var out sliceOut
	b.stop, b.parked, b.wake = false, 0, dist{}
	checkins := make([]int64, waiters)
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			l := b.in.spans.lane(w + 1)
			b.mu.Lock()
			for {
				seen := b.gen
				// Parking and the wait's enqueue are one critical section,
				// so parked == 16 means 16 waiters are on the condvar.
				if b.parked++; b.parked == waiters {
					b.done.Signal()
				}
				for b.gen == seen && !b.stop {
					t := l.now()
					b.cv.Wait(&b.mu)
					l.add(spWait, seen+1, t)
				}
				if b.stop {
					break
				}
				checkins[w]++
				if b.arrived++; b.arrived == waiters {
					b.wake.samples = append(b.wake.samples, nanotime()-b.t0)
					b.done.Signal()
				}
			}
			b.mu.Unlock()
		}(w)
	}
	l := b.in.spans.lane(0)
	bud := newBudget(d, maxOps)
	start := time.Now()
	for bud.more(out.ops) {
		top := l.now()
		b.mu.Lock()
		b.awaitAll(&b.parked)
		b.parked, b.arrived = 0, 0
		b.gen++
		b.t0 = nanotime()
		t := l.now()
		b.cv.Broadcast()
		l.add(spBroadcast, b.gen, t)
		b.awaitAll(&b.arrived)
		b.mu.Unlock()
		l.add(spOp, b.gen, top)
		out.ops++
	}
	out.elapsed = time.Since(start)
	bud.stop()
	b.mu.Lock()
	b.awaitAll(&b.parked)
	b.stop = true
	b.cv.Broadcast()
	b.mu.Unlock()
	wg.Wait()
	out.wake = b.wake
	out.failed = missedCheckins(checkins, out.ops)
	return out
}

// missedCheckins is the conservation check of broadcast: every waiter must
// have checked in once per round. It reports the rounds that went wrong,
// at most all of them.
func missedCheckins(checkins []int64, rounds int64) int64 {
	var bad int64
	for _, c := range checkins {
		if c > rounds {
			bad += c - rounds
		} else {
			bad += rounds - c
		}
	}
	return min(bad, rounds)
}

type txnBroadcast struct {
	e               *stm.Engine
	cv, done        *core.TxCond
	gen             *stm.Var[int64]
	parked, arrived *stm.Var[int]
	stop            *stm.Var[bool]
	t0              atomic.Int64
	rounds          int64 // driven so far: the value of gen between slices
}

func newTxnBroadcast(in instr) *txnBroadcast {
	tk := newToolkit(facility.Txn, in)
	e := tk.Engine
	return &txnBroadcast{e: e,
		cv: core.NewTxCond(tk.NewCondVar()), done: core.NewTxCond(tk.NewCondVar()),
		gen: stm.NewVar(e, int64(0)), parked: stm.NewVar(e, 0), arrived: stm.NewVar(e, 0),
		stop: stm.NewVar(e, false)}
}

func (b *txnBroadcast) tm() (t tmTotals) { t.addEngine(b.e); return }

// release waits, as the notifier, until every waiter has parked, then runs
// then in the same transaction.
func (b *txnBroadcast) release(then func(tx *stm.Tx)) {
	for done := false; !done; {
		b.e.MustAtomic(func(tx *stm.Tx) {
			done = false
			if stm.Read(tx, b.parked) < waiters {
				b.done.Wait(tx)
				return
			}
			then(tx)
			done = true
		})
	}
}

func (b *txnBroadcast) run(d time.Duration, maxOps int64) sliceOut {
	var out sliceOut
	base := b.rounds
	b.e.MustAtomic(func(tx *stm.Tx) {
		stm.Write(tx, b.stop, false)
		stm.Write(tx, b.parked, 0)
	})
	checkins := make([]int64, waiters)
	wakes := make([]dist, waiters)
	var wg sync.WaitGroup
	for w := 0; w < waiters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			seen, counted := base, false
			for {
				var stopped, released bool
				var lastWake int64
				b.e.MustAtomic(func(tx *stm.Tx) {
					stopped, released, lastWake = false, false, 0
					if stm.Read(tx, b.stop) {
						stopped = true
						return
					}
					if stm.Read(tx, b.gen) != seen {
						a := stm.Read(tx, b.arrived) + 1
						stm.Write(tx, b.arrived, a)
						if a == waiters {
							// Read the clock before the commit lets the
							// notifier start the next round and move t0.
							lastWake = nanotime() - b.t0.Load()
							b.done.Signal(tx)
						}
						released = true
						return
					}
					if !counted {
						p := stm.Read(tx, b.parked) + 1
						stm.Write(tx, b.parked, p)
						if p == waiters {
							b.done.Signal(tx)
						}
					}
					b.cv.Wait(tx) // commits: what follows runs once
					counted = true
				})
				if stopped {
					return
				}
				if released {
					checkins[w]++
					seen++
					counted = false
					if lastWake != 0 {
						wakes[w].samples = append(wakes[w].samples, lastWake)
					}
				}
			}
		}(w)
	}
	bud := newBudget(d, maxOps)
	start := time.Now()
	for bud.more(out.ops) {
		b.release(func(tx *stm.Tx) {
			stm.Write(tx, b.parked, 0)
			stm.Write(tx, b.arrived, 0)
			stm.Write(tx, b.gen, stm.Read(tx, b.gen)+1)
			b.t0.Store(nanotime())
			b.cv.Broadcast(tx)
		})
		for done := false; !done; {
			b.e.MustAtomic(func(tx *stm.Tx) {
				done = false
				if stm.Read(tx, b.arrived) < waiters {
					b.done.Wait(tx)
					return
				}
				done = true
			})
		}
		out.ops++
	}
	out.elapsed = time.Since(start)
	bud.stop()
	b.release(func(tx *stm.Tx) {
		stm.Write(tx, b.stop, true)
		b.cv.Broadcast(tx)
	})
	wg.Wait()
	b.rounds += out.ops
	for _, wk := range wakes {
		out.wake.add(wk)
	}
	out.failed = missedCheckins(checkins, out.ops)
	return out
}

// ---- cancel_mix: an abortable wait per op, notified or cancelled by a
// seeded coin; the waiter's ack is a plain wait.

type lockCancel struct {
	in     instr
	seed   uint64
	e      *stm.Engine
	mu     syncx.Mutex
	cv     *core.CondVar // WaitLockedCtx is not on the pthread-shaped Cond
	ack    facility.Cond
	armed  int64 // the op the waiter is parked for; acks the ops before it
	cancel context.CancelFunc
	notify bool // the armed op's coin
	stop   bool
	t0     int64
}

func newLockCancel(seed uint64, in instr) *lockCancel {
	tk := newToolkit(facility.LockTM, in)
	return &lockCancel{in: in, seed: seed, e: tk.Engine, cv: tk.NewCondVar(), ack: tk.NewCond()}
}

func (c *lockCancel) tm() (t tmTotals) { t.addEngine(c.e); return }

func (c *lockCancel) run(d time.Duration, maxOps int64) sliceOut {
	var out, peer sliceOut
	la, lb := c.in.spans.lane(0), c.in.spans.lane(1)
	base := c.armed
	c.stop = false
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the waiter
		defer wg.Done()
		c.mu.Lock()
		for n := base + 1; ; n++ {
			ctx, cancel := context.WithCancel(context.Background())
			c.cancel, c.armed = cancel, n
			t := lb.now()
			c.ack.Signal()
			lb.add(spSignal, n, t)
			t = lb.now()
			notified := c.cv.WaitLockedCtx(&c.mu, ctx)
			lb.add(spWaitCtx, n, t)
			cancel()
			if c.stop {
				break
			}
			if !notified {
				if t0 := c.t0; t0 != 0 {
					peer.cancelWake.samples = append(peer.cancelWake.samples, nanotime()-t0)
				}
			}
			take(&peer.wake, &c.t0)
			if notified != c.notify {
				peer.failed++
			}
		}
		c.mu.Unlock()
	}()
	// awaitArmed returns, holding mu, once the waiter is parked for op n.
	awaitArmed := func(n int64) {
		c.mu.Lock()
		for c.armed < n {
			t := la.now()
			c.ack.Wait(&c.mu)
			la.add(spWait, n, t)
		}
	}
	b := newBudget(d, maxOps)
	start := time.Now()
	i := base
	for b.more(out.ops) {
		i++
		top := la.now()
		awaitArmed(i)
		c.notify = coin(c.seed, i)
		stamp(&c.t0, i)
		t := la.now()
		if c.notify {
			c.cv.NotifyOne(nil)
			la.add(spSignal, i, t)
		} else {
			c.cancel()
			la.add(spCancel, i, t)
		}
		c.mu.Unlock()
		la.add(spOp, i, top)
		out.ops++
	}
	awaitArmed(i + 1) // the last op's ack
	out.elapsed = time.Since(start)
	b.stop()
	c.stop = true
	c.cv.NotifyOne(nil)
	c.mu.Unlock()
	wg.Wait()
	c.armed = i // the op armed for the stop was never driven
	out.failed = peer.failed
	out.wake, out.cancelWake = peer.wake, peer.cancelWake
	return out
}

type txnCancel struct {
	seed   uint64
	e      *stm.Engine
	cv     *core.CondVar
	ack    *core.TxCond
	armed  *stm.Var[int64]
	cancel atomic.Pointer[context.CancelFunc]
	notify atomic.Bool
	stop   atomic.Bool
	t0     atomic.Int64
	driven int64 // ops driven so far
}

func newTxnCancel(seed uint64, in instr) *txnCancel {
	tk := newToolkit(facility.Txn, in)
	return &txnCancel{seed: seed, e: tk.Engine, cv: tk.NewCondVar(),
		ack: core.NewTxCond(tk.NewCondVar()), armed: stm.NewVar(tk.Engine, int64(0))}
}

func (c *txnCancel) tm() (t tmTotals) { t.addEngine(c.e); return }

func (c *txnCancel) awaitArmed(n int64) {
	for done := false; !done; {
		c.e.MustAtomic(func(tx *stm.Tx) {
			done = false
			if stm.Read(tx, c.armed) < n {
				c.ack.Wait(tx)
				return
			}
			done = true
		})
	}
}

func (c *txnCancel) run(d time.Duration, maxOps int64) sliceOut {
	var out, peer sliceOut
	base := c.driven
	c.stop.Store(false)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for n := base + 1; ; n++ {
			ctx, cancel := context.WithCancel(context.Background())
			c.cancel.Store(&cancel)
			var notified bool
			c.e.MustAtomic(func(tx *stm.Tx) {
				// Arming, the ack and the enqueue commit together, so a
				// driver that sees armed == n finds the waiter queued.
				stm.Write(tx, c.armed, n)
				c.ack.Signal(tx)
				notified = c.cv.WaitCtx(syncx.NewTxnSync(tx), ctx, nil) // cvlint:ignore lockorder the TxnSync commits tx early before the wait parks
			})
			cancel()
			if c.stop.Load() {
				return
			}
			if t0 := c.t0.Swap(0); t0 != 0 {
				peer.wake.samples = append(peer.wake.samples, nanotime()-t0)
			}
			if notified != c.notify.Load() {
				peer.failed++
			}
		}
	}()
	b := newBudget(d, maxOps)
	start := time.Now()
	i := base
	for b.more(out.ops) {
		i++
		c.awaitArmed(i)
		heads := coin(c.seed, i)
		c.notify.Store(heads)
		if i&sampleMask == 0 {
			c.t0.Store(nanotime())
		}
		if heads {
			c.e.MustAtomic(func(tx *stm.Tx) { c.cv.NotifyOne(tx) })
		} else {
			(*c.cancel.Load())()
		}
		out.ops++
	}
	c.awaitArmed(i + 1)
	out.elapsed = time.Since(start)
	b.stop()
	c.stop.Store(true)
	c.e.MustAtomic(func(tx *stm.Tx) { c.cv.NotifyOne(tx) })
	wg.Wait()
	c.driven = i
	c.e.MustAtomic(func(tx *stm.Tx) { stm.Write(tx, c.armed, i) }) // the op armed for the stop was never driven
	out.failed = peer.failed
	out.wake = peer.wake
	return out
}

// ---- nowait: every goroutine fills and drains a private queue; nobody parks.

const nowaitBatch = 512 // Puts, then as many Gets, on a queue of twice that capacity

type nowaitRun struct {
	in   instr
	e    *stm.Engine // one engine under every queue: shared commit clock, no data conflicts
	qs   []facility.Queue[int64]
	vals [nowaitBatch]int64
	// Sample buffers are kept between slices: this path allocates nothing
	// per op, so a buffer grown afresh would be most of allocs_per_op.
	samples [][]int64
	spacers [][]*byte
}

// spacer returns a few live objects of every small size class. Allocated
// between two goroutines' private queues, they keep one queue's mutex and
// condvars off the cache lines of the next one's; otherwise where the
// allocator happens to place them decides the baseline's speed (measured:
// 9 to 51 M op/s for pthread from run to run).
func spacer() (keep [][]*byte) {
	for words := 1; words <= 64; words++ {
		keep = append(keep, make([]*byte, words), make([]*byte, words))
	}
	return keep
}

func newNowait(ev *env, k facility.Kind, in instr) *nowaitRun {
	tk := newToolkit(k, in)
	r := &nowaitRun{in: in, e: tk.Engine, samples: make([][]int64, ev.procs)}
	for i := 0; i < ev.procs; i++ {
		r.qs = append(r.qs, facility.NewQueue[int64](tk, 2*nowaitBatch))
		r.spacers = append(r.spacers, spacer()...)
	}
	x := ev.seed
	for i := range r.vals {
		x = x*6364136223846793005 + 1442695040888963407
		r.vals[i] = int64(x >> 1)
	}
	return r
}

func (r *nowaitRun) tm() (t tmTotals) { t.addEngine(r.e); return }

func (r *nowaitRun) run(d time.Duration, maxOps int64) sliceOut {
	outs := make([]sliceOut, len(r.qs))
	b := newBudget(d, (maxOps+int64(len(r.qs))-1)/int64(len(r.qs)))
	var wg sync.WaitGroup
	start := time.Now()
	for g, q := range r.qs {
		wg.Add(1)
		go func(g int, q facility.Queue[int64]) {
			defer wg.Done()
			// o stays on this goroutine's stack until the end: adjacent
			// elements of outs would share a cache line.
			var o sliceOut
			l := r.in.spans.lane(g)
			o.wake.samples = r.samples[g][:0]
			for b.more(o.ops) {
				for j, v := range r.vals {
					op := o.ops + int64(j)
					// No waiter exists here, so the wake metrics take the
					// latency of the call that would have woken one.
					var t0 int64
					stamp(&t0, op)
					t := l.now()
					ok := q.Put(v)
					l.add(spPut, op, t)
					take(&o.wake, &t0)
					if !ok {
						o.failed++
					}
				}
				for j, v := range r.vals {
					t := l.now()
					x, ok := q.Get()
					l.add(spGet, o.ops+nowaitBatch+int64(j), t)
					if !ok || x != v {
						o.failed++
					}
				}
				o.ops += 2 * nowaitBatch
			}
			if q.Len() != 0 { // the drain check
				o.failed++
			}
			outs[g] = o
		}(g, q)
	}
	wg.Wait()
	out := sliceOut{elapsed: time.Since(start)}
	b.stop()
	for g, o := range outs {
		out.ops += o.ops
		out.failed += o.failed
		out.wake.add(o.wake)
		r.samples[g] = o.wake.samples
	}
	return out
}

// ---- parsec: one kernel per runner; an op is one kernel run.

type parsecRun struct {
	ev      *env
	in      instr
	b       parsec.Benchmark
	kind    facility.Kind
	threads int
	runs    int64
	totals  tmTotals // a kernel builds a fresh engine per run
}

// kernelThreads is the kernel's largest supported thread count ≤ GOMAXPROCS.
func kernelThreads(b parsec.Benchmark, procs int) int {
	ths := b.Threads(procs)
	return ths[len(ths)-1]
}

func (p *parsecRun) config(k facility.Kind) parsec.Config {
	return parsec.Config{Threads: p.threads, System: k, Machine: parsec.Westmere, Scale: p.ev.scale, Seed: p.ev.seed}
}

// reference is the pthread checksum every system's run must reproduce.
func (p *parsecRun) reference() uint64 {
	p.ev.mu.Lock()
	defer p.ev.mu.Unlock()
	sum, ok := p.ev.checksums[p.b.Name()]
	if !ok {
		sum = p.b.Run(p.config(facility.LockPthread)).Checksum
		p.ev.checksums[p.b.Name()] = sum
	}
	return sum
}

func (p *parsecRun) tm() tmTotals { return p.totals }

func (p *parsecRun) run(d time.Duration, maxOps int64) sliceOut {
	var out sliceOut
	want := p.reference()
	cfg := p.config(p.kind)
	cfg.CVStats = p.in.stats
	l := p.in.spans.lane(0)
	if p.in.stats != nil {
		p.in.stats.NotifyToWake.Reset()
	}
	start := time.Now()
	for out.ops == 0 || (time.Since(start) < d && (maxOps == 0 || out.ops < maxOps)) {
		p.runs++
		t := l.now()
		res := p.b.Run(cfg)
		l.add(spRun, p.runs, t)
		l.add(spOp, p.runs, t)
		if res.Checksum != want {
			out.failed++
		}
		p.totals.addEngine(res.Engine)
		out.ops++
	}
	out.elapsed = time.Since(start)
	if p.in.stats != nil {
		// The drivers cannot see a kernel's waits, so its wake latency is
		// the condvar's own: committed post → waiter resumed.
		out.wake.hist = p.in.stats.NotifyToWake.Snapshot()
	}
	return out
}

// ---- the workload table.

// workload is one set of inputs. build returns one runner per group — the
// eight kernels of parsec, a single group elsewhere — for one system.
type workload struct {
	name   string
	groups []string
	rounds int   // measured rounds of an untraced run
	warm   int64 // ops per runner in the warm-up round
	// statsWake: the wake metrics come from an extra tmcv system with
	// CVStats attached, because the drivers cannot time the waits.
	statsWake bool
	lanes     int // driver goroutines of a traced system
	build     func(ev *env, k facility.Kind, in instr) []runner
}

func kernelNames() (names []string) {
	for _, b := range parsec.All() {
		names = append(names, b.Name())
	}
	return names
}

var workloads = []*workload{
	{name: "handoff", groups: []string{""}, rounds: 16, warm: 10000, lanes: 2,
		build: func(_ *env, k facility.Kind, in instr) []runner {
			if k == facility.Txn {
				return []runner{newTxnHandoff(in)}
			}
			return []runner{newLockHandoff(k, in)}
		}},
	{name: "broadcast", groups: []string{""}, rounds: 16, warm: 500, lanes: waiters + 1,
		build: func(_ *env, k facility.Kind, in instr) []runner {
			if k == facility.Txn {
				return []runner{newTxnBroadcast(in)}
			}
			return []runner{newLockBroadcast(k, in)}
		}},
	{name: "nowait", groups: []string{""}, rounds: 16, warm: 100 * 2 * nowaitBatch, lanes: 4,
		build: func(ev *env, k facility.Kind, in instr) []runner {
			return []runner{newNowait(ev, k, in)}
		}},
	{name: "cancel_mix", groups: []string{""}, rounds: 16, warm: 10000, lanes: 2,
		build: func(ev *env, k facility.Kind, in instr) []runner {
			switch k {
			case facility.LockPthread:
				// The baseline has no abortable wait: it runs the same
				// exchange with every coin landing on notify.
				return []runner{newLockHandoff(k, in)}
			case facility.Txn:
				return []runner{newTxnCancel(ev.seed, in)}
			}
			return []runner{newLockCancel(ev.seed, in)}
		}},
	{name: "parsec", groups: kernelNames(), rounds: 10, warm: 1, statsWake: true, lanes: 1,
		build: func(ev *env, k facility.Kind, in instr) (rs []runner) {
			for _, b := range parsec.All() {
				rs = append(rs, &parsecRun{ev: ev, in: in, b: b, kind: k, threads: kernelThreads(b, ev.procs)})
			}
			return rs
		}},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}
