// Package fault is a seeded, deterministic fault injector for the
// STM/condvar stack. The paper's correctness argument (Sections 2–4)
// rests on behavior under adversarial interleavings — aborted notifies,
// punctuated transactions, lost-wakeup windows — which ordinary testing
// only reaches by luck. This package lets the stack *provoke* those
// schedules on demand: named hook points are threaded through the STM
// engine (attempt begin, orec acquire, pre-commit), the semaphore
// (post, park) and the condition variable (the enqueue→park and
// dequeue→post windows), and each point can be configured to abort the
// attempt, simulate an HTM capacity overflow, or stall long enough to
// widen the race window the hook guards.
//
// Two properties make the injector usable in production-shaped code:
//
//  1. The disabled path is a single atomic load and zero allocations —
//     the same discipline as the internal/obs tracer, so hooks can stay
//     compiled into every hot path. A nil *Injector is valid and
//     permanently disabled.
//
//  2. Decisions are deterministic. The n-th arrival at a hook point
//     draws its decision as a pure function of (seed, point, n): the
//     injected-fault sequence per point is bit-for-bit reproducible
//     from the seed alone, independent of goroutine scheduling. A chaos
//     run that fails is replayed by re-running with the same -seed.
package fault

import (
	"fmt"
	"sort"
	"sync/atomic"
	"time"
)

// Point names one injection hook threaded through the stack.
type Point uint8

const (
	// TxBegin fires when an optimistic STM attempt begins (serial,
	// irrevocable transactions are never injected — the fallback's
	// forward-progress guarantee is load-bearing for degradation).
	TxBegin Point = iota
	// OrecAcquire fires when an attempt tries to lock an ownership
	// record (encounter-time in write-through, commit-time in HTM).
	OrecAcquire
	// PreCommit fires at the top of an optimistic attempt's commit,
	// before validation.
	PreCommit
	// SemPost fires at the start of sem.Post, for a sem.Sem with an
	// injector attached (SetFault) — a Delay here holds the post back,
	// widening the post→wake window. The condvar's node path does not
	// fire it: CVNotify stalls the same window there.
	SemPost
	// SemPark fires just before a sem.Sem Wait deschedules, for a
	// semaphore with an injector attached — a Delay here widens the
	// window in which a Post must be memorized rather than handed off,
	// and provokes spurious-looking timeouts in WaitTimeout. The
	// condvar's node path does not fire it: CVEnqueue stalls the same
	// window there.
	SemPark
	// CVEnqueue fires between a waiter's committed enqueue and its park
	// — the paper's lost-wakeup window: the waiter is published and its
	// sync block is over, but it is not yet asleep.
	CVEnqueue
	// CVNotify fires in the notifier's commit handler before the
	// semaphore post — the window in which a timed-out or cancelled
	// waiter races the wake-up it can no longer refuse.
	CVNotify

	// NumPoints is the number of hook points.
	NumPoints
)

// String returns the hook point's exporter-facing name.
func (p Point) String() string {
	switch p {
	case TxBegin:
		return "tx.begin"
	case OrecAcquire:
		return "orec.acquire"
	case PreCommit:
		return "tx.precommit"
	case SemPost:
		return "sem.post"
	case SemPark:
		return "sem.park"
	case CVEnqueue:
		return "cv.enqueue"
	case CVNotify:
		return "cv.notify"
	default:
		return "unknown"
	}
}

// Action is what a fired fault does at its hook point.
type Action uint8

const (
	// ActNone: the hook does nothing (the decision did not fire).
	ActNone Action = iota
	// ActAbort forces the enclosing optimistic attempt to abort with a
	// conflict. Ignored by hooks that have no attempt to abort (sem, cv
	// windows), which treat it as ActNone.
	ActAbort
	// ActCapacity forces a simulated HTM capacity abort.
	ActCapacity
	// ActDelay stalls the hook point for Decision.Delay, widening the
	// race window the point guards. Legal at every point.
	ActDelay
)

// String names the action.
func (a Action) String() string {
	switch a {
	case ActAbort:
		return "abort"
	case ActCapacity:
		return "capacity"
	case ActDelay:
		return "delay"
	default:
		return "none"
	}
}

// Decision is one drawn fault. The zero value means "no fault".
type Decision struct {
	Action Action
	Delay  time.Duration // meaningful for ActDelay
}

// Pause sleeps the decision's delay if the decision is a Delay; any
// other action is a no-op here (aborts are the hook owner's job).
func (d Decision) Pause() {
	if d.Action == ActDelay && d.Delay > 0 {
		time.Sleep(d.Delay)
	}
}

// Rule configures one hook point: with probability Rate each arrival
// fires Action (Delay bounds the stall for ActDelay; the actual stall
// is drawn deterministically in [Delay/2, Delay]).
type Rule struct {
	Rate   float64
	Action Action
	Delay  time.Duration
}

// threshold converts a rate to the uint32 comparison threshold used by
// the decision function. Rates >= 1 always fire; rates <= 0 never do.
func (r Rule) threshold() uint64 {
	switch {
	case r.Rate >= 1:
		return 1 << 32
	case r.Rate <= 0:
		return 0
	default:
		return uint64(r.Rate * float64(uint64(1)<<32))
	}
}

// rules is an immutable configuration snapshot (swapped atomically so
// reconfiguration never races the hot path).
type rules struct {
	thr    [NumPoints]uint64
	action [NumPoints]Action
	delay  [NumPoints]time.Duration
}

// Injector is the seeded injector. Create with New, configure with Set
// (or SetAll), then Arm. All methods are safe for concurrent use, and
// every method is safe on a nil receiver (permanently disabled).
type Injector struct {
	armed atomic.Bool
	seed  uint64
	cfg   atomic.Pointer[rules]

	// seq is the per-point arrival counter — the n that makes the n-th
	// decision at a point a pure function of the seed.
	seq [NumPoints]atomic.Uint64
	// fired counts decisions that actually did something.
	fired [NumPoints]atomic.Uint64
}

// New returns a disarmed injector with the given seed.
func New(seed uint64) *Injector {
	in := &Injector{seed: seed}
	in.cfg.Store(&rules{})
	return in
}

// Seed returns the seed (for failure-replay messages).
func (in *Injector) Seed() uint64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Set configures one hook point and returns the injector for chaining.
// Reconfiguration is atomic with respect to concurrent draws.
func (in *Injector) Set(p Point, r Rule) *Injector {
	if in == nil || p >= NumPoints {
		return in
	}
	for {
		old := in.cfg.Load()
		next := *old
		next.thr[p] = r.threshold()
		next.action[p] = r.Action
		next.delay[p] = r.Delay
		if in.cfg.CompareAndSwap(old, &next) {
			return in
		}
	}
}

// SetAll applies the same rule to every hook point (chaos soaks). The
// action at points where it is meaningless degrades per the Action
// docs.
func (in *Injector) SetAll(r Rule) *Injector {
	for p := Point(0); p < NumPoints; p++ {
		in.Set(p, r)
	}
	return in
}

// Arm turns injection on.
func (in *Injector) Arm() {
	if in != nil {
		in.armed.Store(true)
	}
}

// Disarm turns injection off. Draws already past the armed check may
// still land.
func (in *Injector) Disarm() {
	if in != nil {
		in.armed.Store(false)
	}
}

// Armed reports whether the injector is live. Safe on nil.
func (in *Injector) Armed() bool { return in != nil && in.armed.Load() }

// At draws the next decision for hook point p. The disabled path — nil
// injector or disarmed — is a nil check plus one atomic load, with zero
// allocations; hooks may therefore stay compiled into hot paths, like
// the obs tracer's Emit.
func (in *Injector) At(p Point) Decision {
	if in == nil || !in.armed.Load() {
		return Decision{}
	}
	return in.draw(p)
}

func (in *Injector) draw(p Point) Decision {
	if p >= NumPoints {
		return Decision{}
	}
	n := in.seq[p].Add(1) - 1
	d := decide(in.seed, p, n, in.cfg.Load())
	if d.Action != ActNone {
		in.fired[p].Add(1)
	}
	return d
}

// decide is the pure decision function: the n-th arrival at point p
// under seed and configuration r. Determinism of the injected-fault
// sequence (per point) reduces to determinism of this function.
func decide(seed uint64, p Point, n uint64, r *rules) Decision {
	thr := r.thr[p]
	if thr == 0 {
		return Decision{}
	}
	x := mix(seed, p, n)
	if uint64(uint32(x)) >= thr {
		return Decision{}
	}
	d := Decision{Action: r.action[p]}
	if d.Action == ActDelay {
		// Deterministic stall in [Delay/2, Delay].
		half := r.delay[p] / 2
		if half > 0 {
			d.Delay = half + time.Duration((x>>32)%uint64(half+1))
		} else {
			d.Delay = r.delay[p]
		}
	}
	return d
}

// mix is a splitmix64-style finalizer over (seed, point, n).
func mix(seed uint64, p Point, n uint64) uint64 {
	x := seed ^ (uint64(p)+1)*0x9E3779B97F4A7C15 ^ (n+1)*0xBF58476D1CE4E5B9
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// DeriveSeed maps a base seed and a stream number to a derived seed, a
// pure function of the two. The blackbox harness arms its injector with
// DeriveSeed(seed, 0) and derives its actor scripts from the same value,
// so a failing run's fault schedule and submissions are a function of
// -seed alone: the run's replay: line, which starts a fresh process with
// that seed, draws them again exactly. The point argument to mix is
// NumPoints — outside the hook-point range — so derived seeds never
// collide with any injector's own per-point decision stream.
func DeriveSeed(base, stream uint64) uint64 {
	return mix(base, NumPoints, stream)
}

// Sequence returns the first n decisions point p would draw under the
// current configuration, without consuming the live counters — the
// reference the reproducibility tests (and a failure replay) compare a
// run against.
func (in *Injector) Sequence(p Point, n int) []Decision {
	if in == nil || p >= NumPoints {
		return nil
	}
	r := in.cfg.Load()
	out := make([]Decision, n)
	for i := 0; i < n; i++ {
		out[i] = decide(in.seed, p, uint64(i), r)
	}
	return out
}

// Drawn returns how many decisions point p has drawn (fired or not).
func (in *Injector) Drawn(p Point) uint64 {
	if in == nil || p >= NumPoints {
		return 0
	}
	return in.seq[p].Load()
}

// Fired returns how many decisions at point p actually injected a
// fault.
func (in *Injector) Fired(p Point) uint64 {
	if in == nil || p >= NumPoints {
		return 0
	}
	return in.fired[p].Load()
}

// FiredTotal returns the number of injected faults across all points.
func (in *Injector) FiredTotal() uint64 {
	var t uint64
	for p := Point(0); p < NumPoints; p++ {
		t += in.Fired(p)
	}
	return t
}

// Snapshot returns per-point drawn/fired counts keyed by point name —
// the chaos-soak summary.
func (in *Injector) Snapshot() map[string]uint64 {
	if in == nil {
		return nil
	}
	out := make(map[string]uint64, 2*NumPoints)
	for p := Point(0); p < NumPoints; p++ {
		out[p.String()+".drawn"] = in.Drawn(p)
		out[p.String()+".fired"] = in.Fired(p)
	}
	return out
}

// Summary renders the snapshot as one line per point, sorted, for
// chaos-run logs.
func (in *Injector) Summary() string {
	if in == nil {
		return "fault: no injector"
	}
	lines := make([]string, 0, NumPoints)
	for p := Point(0); p < NumPoints; p++ {
		lines = append(lines, fmt.Sprintf("%-13s drawn=%-8d fired=%d", p, in.Drawn(p), in.Fired(p)))
	}
	sort.Strings(lines)
	s := ""
	for _, l := range lines {
		s += l + "\n"
	}
	return s
}
