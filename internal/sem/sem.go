// Package sem implements counting semaphores in user space.
//
// The paper ("Transaction-Friendly Condition Variables", SPAA 2014)
// represents each condition variable as a transactional queue of
// per-thread counting semaphores (its Algorithm 3 uses POSIX sem_t).
// This package is the Go substrate for that role: a from-scratch
// counting semaphore with the two properties the condition-variable
// algorithm depends on:
//
//  1. Memory: a Post that happens before the matching Wait is never
//     lost — Wait consumes the permit and returns immediately. This is
//     what makes the condvar's WAIT immune to the "missed notify" race:
//     the waiter enqueues itself and completes its sync block *before*
//     sleeping; if a notifier runs in that window, its SemPost is
//     memorized by the semaphore.
//  2. Direct hand-off: a Post that finds a parked waiter hands the
//     permit to the longest-waiting one directly (the permit never
//     becomes visible to a barging TryWait), so combined with the
//     condvar's queue this yields the deterministic wake-up semantics
//     of Section 3.4.
//
// Waiters are descheduled (parked on a channel) rather than spinning, so
// the "Yielding" requirement of Section 3.4 holds even with heavy
// oversubscription of goroutines over OS threads.
//
// # One queue
//
// A Sem is one lock, one banked-permit count and one FIFO list of
// waiters. Post takes the lock and either pops the head waiter (the
// permit goes over its capacity-1 channel, never through the count) or,
// finding nobody, banks the permit. Wait takes a banked permit if there
// is one and otherwise appends itself under the same lock, so there is
// no window between a waiter's check and its enqueue for a post to fall
// into. Wake-up order is global FIFO at every GOMAXPROCS: vacuous for
// the condvar's node semaphores (one waiter each), Section 3.4's
// deterministic order for syncx.Mutex, internal/monitor and the Birrell
// baseline. DESIGN.md §16.1 has the measurements behind this layout and
// the result that would justify striping the queue per P.
//
// An untimed Wait polls its channel for a bounded, adaptively tuned
// number of Gosched-separated iterations before it deschedules. The
// tuner stays although a node semaphore's waiter could simply park:
// dropping it trades throughput and CPU against tail wake latency
// (numbers in §16.1), a decision of its own.
package sem

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Stats aggregates semaphore activity. All fields are atomic counters and
// may be read while the semaphore is in use.
type Stats struct {
	Posts     obs.Counter // total successful Post operations
	Waits     obs.Counter // total completed Wait/TryWait-success operations
	FastWaits obs.Counter // Waits satisfied without blocking
	Blocks    obs.Counter // Waits that had to deschedule the caller
	SpinWaits obs.Counter // Waits satisfied during the bounded spin phase (no park)
	Timeouts  obs.Counter // WaitTimeout expirations
	Cancels   obs.Counter // WaitCtx cancellations

	// ParkNanos distributes the park duration of Waits that had to
	// deschedule the caller (fast-path and spin-phase Waits are not
	// observed).
	ParkNanos obs.Histogram
}

// waiter is one parked goroutine. The channel has capacity 1 so that a
// poster never blocks handing over a permit.
type waiter struct {
	ch   chan struct{}
	next *waiter

	// parkedAt is the monotonic park-start timestamp, stamped under the
	// semaphore lock by enqueue and read under the same lock by
	// OldestParkAge — the live park-age source behind
	// /debug/cv/waiters.
	parkedAt time.Time
}

// waiterPool recycles waiter structs (and their hand-off channels) so the
// park path allocates nothing in steady state. A struct is returned only
// once its channel is provably empty — the signal was consumed, or the
// waiter was unlinked under the lock before any poster could have popped
// it — so reuse can never deliver a stale signal.
var waiterPool = sync.Pool{New: func() any { return &waiter{ch: make(chan struct{}, 1)} }}

func putWaiter(w *waiter) {
	w.next = nil
	waiterPool.Put(w)
}

// Spin-then-park tuning bounds (Dice & Kogan, "Semaphores Augmented
// with a Waiting Array": a bounded optimistic spin before the park
// removes the kernel round-trip when hand-offs are fast, and must decay
// to pure parking when they are not).
const (
	// spinLimit caps the adaptive spin budget (poll iterations with a
	// Gosched between them — cooperative, never a hard busy loop).
	spinLimit = 128
	// spinParkThreshold is the park latency under which a hand-off is
	// considered "fast": parks shorter than this grow the spin budget,
	// longer ones shrink it.
	spinParkThreshold = 50 * time.Microsecond
)

// Sem is a counting semaphore. The zero value is a semaphore with zero
// permits; use New to start with an initial count.
//
// Sem must not be copied after first use.
type Sem struct {
	// mu guards the waiter list. The paper assumes the OS supplies mutual
	// exclusion underneath sem_t; sync.Mutex plays that role here.
	mu sync.Mutex

	// count holds banked permits only — posts that found no waiter. It
	// grows only under mu and only while the queue is empty, so
	// count > 0 implies nobody is parked; it shrinks by CAS, with or
	// without the lock. Permits handed directly to a parked waiter never
	// pass through it.
	count atomic.Int64

	// FIFO list of parked waiters, guarded by mu, and its length (written
	// under mu, read lock-free by Waiters).
	head, tail *waiter
	n          atomic.Int32

	// procs is runtime.GOMAXPROCS sampled once, on first need: it gates
	// the spin phase, so a mid-run GOMAXPROCS change cannot flip wait
	// behaviour per call.
	procs atomic.Int32

	// spin is the adaptive spin budget: how many channel polls Wait
	// attempts before descheduling. Zero (the zero value) means park
	// immediately; tuneSpin grows it only on evidence of fast hand-offs.
	// Pinned to zero when procs == 1: with a single P the Gosched-polled
	// spin can never overlap a poster.
	spin atomic.Int32

	st *Stats

	// Optional tracer and the trace lane its events are attributed to
	// (the owning condvar node id, when used as a per-waiter binary
	// semaphore). Set via SetTrace; nil-safe when unset.
	tr     *obs.Tracer
	trLane uint64

	// Optional fault injector (internal/fault). Set via SetFault;
	// nil-safe when unset, one atomic load when disarmed.
	flt *fault.Injector
}

// New returns a semaphore holding n initial permits. n must be >= 0.
func New(n int64) *Sem {
	if n < 0 {
		panic(fmt.Sprintf("sem: negative initial count %d", n))
	}
	s := &Sem{}
	s.count.Store(n)
	return s
}

// NewBinary returns a semaphore suitable for use as the per-thread binary
// semaphore of the paper's Algorithm 3: it starts at zero, so the first
// Wait blocks until the matching Post.
func NewBinary() *Sem { return New(0) }

// SetStats attaches a stats sink; pass nil to detach. Not synchronized
// with concurrent operations; call before sharing the semaphore.
func (s *Sem) SetStats(st *Stats) { s.st = st }

// SetTrace attaches an event tracer and the trace lane (e.g. the owning
// condvar node id) park/unpark events are attributed to. Like SetStats
// it is not synchronized with concurrent operations; call before
// sharing.
func (s *Sem) SetTrace(tr *obs.Tracer, lane uint64) { s.tr, s.trLane = tr, lane }

// SetFault attaches a fault injector; pass nil to detach. Like SetStats
// it is not synchronized with concurrent operations; call before
// sharing.
func (s *Sem) SetFault(in *fault.Injector) { s.flt = in }

// faultAt draws and applies the injector's decision for hook point p.
// Only delays are meaningful at semaphore points — there is no
// transaction attempt to abort here — so abort-shaped decisions
// degrade to instant no-ops (still traced as injected).
func (s *Sem) faultAt(p fault.Point) {
	d := s.flt.At(p)
	if d.Action == fault.ActNone {
		return
	}
	s.tr.Emit(s.trLane, obs.EvFaultInject, int64(p), int64(d.Action))
	d.Pause()
}

// parkStart stamps the beginning of a descheduled Wait, emitting the park
// event if tracing and labeling the goroutine with its condvar lane when
// introspection asked for it. The timestamp always carries a value:
// besides feeding parkEnd's histogram it drives the spin-budget tuner,
// which needs the hand-off latency even when no stats sink is attached.
// The label gate is one atomic load when off.
func (s *Sem) parkStart() time.Time {
	if obs.ParkLabelsEnabled() {
		labelParked(s.trLane)
	}
	t0 := time.Now()
	if s.tr.Enabled() {
		s.tr.Emit(s.trLane, obs.EvSemPark, 0, 0)
	}
	return t0
}

// parkEnd records the park duration started at t0 (histogram + unpark
// span event) and clears the park label.
func (s *Sem) parkEnd(t0 time.Time) {
	if obs.ParkLabelsEnabled() {
		clearParkLabel()
	}
	if t0.IsZero() {
		return
	}
	d := time.Since(t0).Nanoseconds()
	if d < 0 {
		// A stepping wall clock (or a hostile t0) must not feed a
		// negative duration into the histogram sum or the span event.
		d = 0
	}
	if s.st != nil {
		s.st.ParkNanos.Observe(d)
	}
	if tr := s.tr; tr.Enabled() {
		tr.EmitEvent(obs.Event{TS: tr.Now() - d, Dur: d, Type: obs.EvSemUnpark, Lane: s.trLane})
	}
}

// noteFastWait counts a Wait that was satisfied from the banked count.
func (s *Sem) noteFastWait() {
	if s.st != nil {
		s.st.Waits.Inc()
		s.st.FastWaits.Inc()
	}
}

// tryAcquire consumes one banked permit, reporting success. It loops on
// the CAS so a waiter rechecking under the lock cannot be defeated by
// counter churn alone — only by the count actually reaching zero.
func (s *Sem) tryAcquire() bool {
	for {
		c := s.count.Load()
		if c <= 0 {
			return false
		}
		if s.count.CompareAndSwap(c, c-1) {
			return true
		}
	}
}

// enqueue appends w to the waiter list. Caller holds mu.
func (s *Sem) enqueue(w *waiter) {
	w.parkedAt = time.Now()
	if s.tail == nil {
		s.head, s.tail = w, w
	} else {
		s.tail.next = w
		s.tail = w
	}
	s.n.Add(1)
}

// pop removes and returns the longest-waiting waiter, or nil. Caller
// holds mu.
func (s *Sem) pop() *waiter {
	w := s.head
	if w == nil {
		return nil
	}
	s.head = w.next
	if s.head == nil {
		s.tail = nil
	}
	w.next = nil
	s.n.Add(-1)
	return w
}

// unlink removes w from the waiter list, reporting whether it was still
// present. Caller holds mu.
func (s *Sem) unlink(w *waiter) bool {
	var prev *waiter
	for cur := s.head; cur != nil; prev, cur = cur, cur.next {
		if cur != w {
			continue
		}
		if prev == nil {
			s.head = w.next
		} else {
			prev.next = w.next
		}
		if s.tail == w {
			s.tail = prev
		}
		w.next = nil
		s.n.Add(-1)
		return true
	}
	return false
}

// Post makes one permit available. If a goroutine is blocked in Wait, the
// longest-waiting one receives the permit directly and becomes runnable;
// otherwise the permit is banked for a future Wait.
//
// Post never blocks and is safe to call from commit handlers, which is how
// the condition variable defers wake-ups to transaction commit.
func (s *Sem) Post() {
	// Fault hook: delay the (possibly commit-deferred) SEMPOST, widening
	// the notify→wake window.
	s.faultAt(fault.SemPost)
	s.mu.Lock()
	w := s.pop()
	if w == nil {
		s.count.Add(1)
	}
	s.mu.Unlock()
	if w != nil {
		// Cannot block (capacity 1, one permit per waiter), and a popped
		// waiter can no longer unlink itself: it will take this signal.
		w.ch <- struct{}{}
	}
	if s.st != nil {
		s.st.Posts.Inc()
	}
}

// acquireOrEnqueue takes a banked permit if there is one and reports nil;
// otherwise it appends a pooled waiter to the queue and returns it, and
// the caller must park on its channel. The recheck under the lock is
// what closes the lost-wake-up window: a Post banks only under the same
// lock, so it either banked before the recheck (the permit is consumed
// here) or runs after the enqueue and pops this waiter.
//
// The waiter is fetched before the lock is taken: a pool miss allocates,
// an allocation can be made to assist the collector, and a poster must
// never queue on mu behind that.
func (s *Sem) acquireOrEnqueue() *waiter {
	if s.tryAcquire() {
		s.noteFastWait()
		return nil
	}
	w := waiterPool.Get().(*waiter)
	s.mu.Lock()
	if s.tryAcquire() {
		s.mu.Unlock()
		putWaiter(w)
		s.noteFastWait()
		return nil
	}
	s.enqueue(w)
	s.mu.Unlock()
	return w
}

// parallel reports whether the runtime had more than one P when this
// semaphore first asked.
func (s *Sem) parallel() bool {
	p := s.procs.Load()
	if p == 0 {
		p = int32(runtime.GOMAXPROCS(0))
		s.procs.Store(p)
	}
	return p > 1
}

// spinWait polls w.ch for up to budget iterations, yielding the
// processor between polls, and reports whether a wake signal arrived
// during the spin. The yield keeps the spin cooperative: with more
// goroutines than OS threads the poster still gets scheduled.
func spinWait(w *waiter, budget int32) bool {
	for i := int32(0); i < budget; i++ {
		select {
		case <-w.ch:
			return true
		default:
		}
		runtime.Gosched()
	}
	return false
}

// tuneSpin adapts the spin budget to the hand-off latency a real park
// just observed: fast hand-offs grow the budget so the next Wait can
// catch the permit without descheduling; slow ones shrink it toward zero
// so an idle semaphore parks outright. With a single P the budget pins
// to zero — there even "fast" hand-offs are evidence of scheduling luck,
// not of a spin that could have won.
func (s *Sem) tuneSpin(parked time.Duration) {
	if !s.parallel() {
		s.spin.Store(0)
		return
	}
	b := s.spin.Load()
	if parked >= 0 && parked < spinParkThreshold {
		b = b*2 + 8
		if b > spinLimit {
			b = spinLimit
		}
	} else {
		b /= 2
	}
	s.spin.Store(b)
}

// Wait acquires one permit, descheduling the caller until one is
// available. Permits are delivered in FIFO order among blocked waiters.
//
// Before descheduling, Wait polls its hand-off channel for the current
// spin budget (spin-then-park): when recent hand-offs have been fast the
// permit usually lands during the spin and the park/unpark round-trip is
// skipped. The budget starts at zero, so a semaphore nobody posts to
// never busy-waits.
func (s *Sem) Wait() {
	w := s.acquireOrEnqueue()
	if w == nil {
		return
	}
	// Fault hook: stall between publishing ourselves as a waiter and
	// descheduling — a Post landing in this window must be memorized in
	// the handoff channel, never lost.
	s.faultAt(fault.SemPark)
	// The spin phase only makes sense with another P to run the poster;
	// on a single P it would burn the rest of this goroutine's slice.
	if budget := s.spin.Load(); budget > 0 && s.parallel() {
		if spinWait(w, budget) {
			putWaiter(w)
			if s.st != nil {
				s.st.SpinWaits.Inc()
				s.st.Waits.Inc()
			}
			return
		}
	}
	if s.st != nil {
		s.st.Blocks.Inc()
	}
	t0 := s.parkStart()
	<-w.ch
	putWaiter(w)
	s.parkEnd(t0)
	s.tuneSpin(time.Since(t0))
	if s.st != nil {
		s.st.Waits.Inc()
	}
}

// TryWait acquires a permit only if one is immediately available
// (banked — permits in flight to a parked waiter are never visible
// here). It reports whether a permit was acquired.
func (s *Sem) TryWait() bool {
	if s.tryAcquire() {
		s.noteFastWait()
		return true
	}
	return false
}

// parkAbortable parks the enqueued waiter w until a Post hands it a
// permit, d elapses (d > 0) or done is closed (nil never is), and
// reports whether a permit was acquired. The notification wins: a loser
// unlinks itself under the lock, and one that finds a Post has already
// popped it takes the permit that is (or will be) in its channel
// instead, so no permit is ever lost to an abandoned wait and none is
// banked twice. There is no spin phase here.
func (s *Sem) parkAbortable(w *waiter, d time.Duration, done <-chan struct{}) bool {
	if s.st != nil {
		s.st.Blocks.Inc()
	}
	s.faultAt(fault.SemPark)
	t0 := s.parkStart()

	var expired <-chan time.Time
	if d > 0 {
		t := time.NewTimer(d)
		defer t.Stop()
		expired = t.C
	}
	acquired := true
	select {
	case <-w.ch:
	case <-expired:
		acquired = s.abandon(w)
	case <-done:
		acquired = s.abandon(w)
	}
	putWaiter(w)
	s.parkEnd(t0)
	if acquired && s.st != nil {
		s.st.Waits.Inc()
	}
	return acquired
}

// abandon is the loser half of parkAbortable: it reports false if w was
// still queued (now unlinked, channel untouched) and true if a Post got
// to it first, after consuming that Post's signal.
func (s *Sem) abandon(w *waiter) bool {
	s.mu.Lock()
	queued := s.unlink(w)
	s.mu.Unlock()
	if queued {
		return false
	}
	<-w.ch
	return true
}

// WaitTimeout acquires a permit, giving up after d. It reports whether a
// permit was acquired. A timed-out waiter is unlinked from the queue; if
// a Post races with the timeout and hands the permit over anyway, the
// permit is kept and WaitTimeout returns true (no permit is ever lost).
//
// A non-positive d acts exactly as TryWait — the caller is never parked
// — except that a failed acquire still counts as a timeout in Stats.
func (s *Sem) WaitTimeout(d time.Duration) bool {
	if d <= 0 {
		if s.TryWait() {
			return true
		}
	} else {
		w := s.acquireOrEnqueue()
		if w == nil || s.parkAbortable(w, d, nil) {
			return true
		}
	}
	if s.st != nil {
		s.st.Timeouts.Inc()
	}
	return false
}

// WaitCtx acquires a permit, giving up when ctx is cancelled. It reports
// whether a permit was acquired. The race discipline matches
// WaitTimeout's: the notification wins — if a Post dequeues the waiter
// before the cancellation takes effect, the permit is consumed and
// WaitCtx returns true, so no permit is ever lost to a cancelled
// waiter. An already-cancelled ctx still acquires an immediately
// available permit (TryWait semantics) but never parks.
func (s *Sem) WaitCtx(ctx context.Context) bool {
	if s.TryWait() {
		return true
	}
	if ctx.Err() == nil {
		w := s.acquireOrEnqueue()
		if w == nil || s.parkAbortable(w, 0, ctx.Done()) {
			return true
		}
	}
	if s.st != nil {
		s.st.Cancels.Inc()
	}
	return false
}

// Value returns the current banked permit count (never negative).
func (s *Sem) Value() int64 { return s.count.Load() }

// Waiters returns the number of goroutines currently parked (a snapshot).
func (s *Sem) Waiters() int { return int(s.n.Load()) }
