package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/sem"
	"repro/internal/stm"
	"repro/internal/syncx"
)

// Options configures a CondVar. It has no fields: every condvar is
// Algorithm 4's FIFO queue. The type stays only because
// benchmark/ladder.go passes Options{}; it goes when that call does.
type Options struct{}

// CVStats aggregates condition-variable activity.
type CVStats struct {
	Waits       obs.Counter // completed WAIT operations
	NotifyOnes  obs.Counter // NotifyOne calls that woke someone
	NotifyAlls  obs.Counter // NotifyAll calls that woke >= 1 thread
	NotifyEmpty obs.Counter // notifies that found an empty queue
	Woken       obs.Counter // total threads woken
	Timeouts    obs.Counter // timed waits that expired un-notified
	Cancels     obs.Counter // context waits that ended cancelled

	// Wait latency, split at the committed SEMPOST — the two halves the
	// paper's end-to-end numbers cannot separate: how long a waiter sat
	// enqueued before some notifier's commit posted its semaphore, and how
	// long the runtime then took to get the woken goroutine running again.
	EnqueueToNotify obs.Histogram // ns: enqueue → notifier's committed post
	NotifyToWake    obs.Histogram // ns: committed post → waiter resumed

	// BroadcastNanos is how long each committed NotifyAll/NotifyN batch
	// took from the commit handler starting to the last waiter resuming.
	BroadcastNanos obs.Histogram // ns: batch commit → last waiter resumed

	// WakeConsumed counts consumed wakes by the kind of waiter that
	// consumed them, indexed by the obs.WakeBy* codes (DESIGN.md §15): a
	// timeout/cancel loser that kept a raced permit shows up under its
	// own consumer label.
	WakeConsumed [3]obs.Counter

	// WakeChainDepth observes the constant 1 per consumed wake: every
	// post comes from the notifier's commit handler (Algorithm 6), there
	// is no chain. Its only reader is benchmark/run.go (the
	// core.wake_chain_depth_p99 rung), which this tree may not edit; the
	// next benchmark-archetype issue removes the rung and this field.
	WakeChainDepth obs.Histogram

	// Sem aggregates the node parkers' activity: Posts (one per committed
	// wake), FastWaits (the post was already in the slot), Blocks (the
	// waiter descheduled) and ParkNanos (how long). SpinWaits stays 0 —
	// nothing spins. It keeps the sem.Stats type because benchmark/run.go
	// reads it.
	Sem sem.Stats
}

// Snapshot returns the scalar counters at one instant, keyed by name.
// Like TMStats.Snapshot it reads the instrument table (introspect.go)
// that RegisterMetrics exports, so the two key sets cannot drift.
func (s *CVStats) Snapshot() map[string]int64 {
	rows := s.scalars()
	out := make(map[string]int64, len(rows))
	for _, sc := range rows {
		out[sc.name] = sc.read()
	}
	return out
}

// Histograms returns snapshots of the latency histograms, keyed by name.
func (s *CVStats) Histograms() map[string]obs.HistogramSnapshot {
	rows := s.histograms()
	out := make(map[string]obs.HistogramSnapshot, len(rows))
	for _, th := range rows {
		out[th.name] = th.h.Snapshot()
	}
	return out
}

// Node is one entry of a CondVar's wait queue: the calling thread's
// binary semaphore plus the transactional next link (Algorithm 3). Nodes
// are owned by exactly one waiting goroutine from enqueue to wake-up;
// after the wake-up the node is private again (the privatization argument
// of Section 3.3) and returns to the pool.
//
// The semaphore is wake, a capacity-1 channel: one waiter parks on it
// and one notifier posts it once per dequeue, so the slot is empty at
// every enqueue and the post never blocks.
type Node struct {
	wake chan struct{}
	next *stm.Var[*Node]
	tag  *stm.Var[any] // optional predicate descriptor for NotifyBest

	// id identifies the node in trace output (the lane its enqueue →
	// notify → sempost → wake chain renders on).
	id uint64

	// Observability timestamps, as atomic monotonic nanoseconds since
	// the package epoch (zero = unset). The owner/notifier hand-off
	// alone would make plain fields race-free (the enqueue commit orders
	// the enqueue stamp before any notifier's read; the semaphore
	// hand-off orders the notify stamp before the waiter's read), but
	// the introspection scraper (WaitChain) reads them from arbitrary
	// goroutines with no such ordering — hence atomics.
	enqueuedNS atomic.Int64
	notifiedNS atomic.Int64
	// parkedNS stamps the owner's park (zero until it deschedules): the
	// park age WaitChain reports.
	parkedNS atomic.Int64

	// Sanitizer bookkeeping (checked only when the engine's debug checks
	// are on; see sanitize* below). inQueue tracks whether the node is
	// reachable from the wait queue; gen counts pool recycles, so a
	// notification that outlives the node it targeted is detected (ABA).
	inQueue atomic.Bool
	gen     atomic.Uint64

	// enqBody is the node's cached transactional-insert closure (see
	// enqueueBody); built once per node, reused across pool recycles.
	enqBody func(*stm.Tx)

	// batch is the broadcast this wake belongs to, for the commit-to-
	// last-wake histogram: set by a committed notify batch
	// (wakeCommitted), consumed exactly once by the woken owner in
	// noteWake, nil outside a batch wake.
	batch atomic.Pointer[wakeBatch]

	// wakeID is the causal wake stamp (DESIGN.md §15): the flow id the
	// committed notify minted, stored by wakeNode before the semaphore
	// post and consumed (Swap(0)) by the woken owner in noteWake. The
	// semaphore hand-off orders the store before the owner's read; the
	// atomic keeps concurrent scrapers safe, like the timestamps above.
	wakeID atomic.Uint64
}

// wakeBatch is the shared bookkeeping of one committed notify batch
// (allocated only when stats are attached): every woken waiter
// decrements remaining, and the last one observes the batch's
// commit-to-last-wake latency.
type wakeBatch struct {
	startNS   int64
	remaining atomic.Int64
}

// nodeSeq hands out trace-lane ids for nodes across all condvars.
var nodeSeq atomic.Uint64

// cvSeq hands out condvar ids for trace attribution (the B argument of
// enqueue/notify/wake events, resolved to a name by the Chrome exporter
// when the condvar was named).
var cvSeq atomic.Uint64

// CondVar is the paper's transaction-friendly condition variable
// (Algorithms 3–6): a queue of per-thread semaphores manipulated inside
// small transactions, with SEMPOST deferred to transaction commit.
//
// All methods may be called from lock-based critical sections, from
// transactions (pass the live *stm.Tx), or from unsynchronized code
// ("naked" notifies): the internal transactions make the queue race-free
// in every combination.
type CondVar struct {
	e    *stm.Engine
	head *stm.Var[*Node]
	tail *stm.Var[*Node]
	pool sync.Pool
	st   *CVStats

	// id tags this condvar's trace events (see cvSeq); name is the
	// attribution label set by SetName — a setup-time field like st.
	id   uint64
	name string

	// Per-condvar consumed-by counters behind RegisterConsumedMetrics
	// (the named-CV view of CVStats.WakeConsumed). consumedOn is a
	// setup-time flag like st: when false — the default — the wake path
	// never touches them.
	consumedOn bool
	consumed   [3]obs.Counter // indexed by obs.WakeBy* consumer codes
}

// New creates a condition variable whose internal transactions run on e.
func New(e *stm.Engine, _ Options) *CondVar {
	cv := &CondVar{
		e:    e,
		head: stm.NewVar[*Node](e, nil),
		tail: stm.NewVar[*Node](e, nil),
		id:   cvSeq.Add(1),
	}
	cv.pool.New = func() any { return cv.newNode() }
	return cv
}

// SetStats attaches a stats sink; call before concurrent use.
func (cv *CondVar) SetStats(st *CVStats) { cv.st = st }

// SetName labels the condvar for contention attribution and trace
// output: its queue Vars show as name.head/name.tail in conflict
// tables, its trace events resolve to name in the Chrome exporter, and
// nodes created afterwards name their links name.node. A setup-time
// call like SetStats; returns cv for chaining.
func (cv *CondVar) SetName(name string) *CondVar {
	cv.name = name
	cv.head.SetName(name + ".head")
	cv.tail.SetName(name + ".tail")
	obs.RegisterEntityName(cv.id, name)
	return cv
}

// Name returns the label set by SetName ("" when unnamed).
func (cv *CondVar) Name() string { return cv.name }

// Engine returns the engine the condvar's internal transactions use.
func (cv *CondVar) Engine() *stm.Engine { return cv.e }

func (cv *CondVar) newNode() *Node {
	n := &Node{
		id:   nodeSeq.Add(1),
		wake: make(chan struct{}, 1),
		next: stm.NewVar[*Node](cv.e, nil),
		tag:  stm.NewVar[any](cv.e, nil),
	}
	if cv.name != "" {
		// All of a named condvar's node links share one attribution row:
		// queue-link churn shows up as "<name>.node", not per-node sites.
		n.next.SetName(cv.name + ".node")
	}
	n.enqBody = func(tx *stm.Tx) { cv.enqueueBody(tx, n) }
	return n
}

// faultWindow stalls at a condvar hook point when the engine's injector
// orders it. Only delays are meaningful here — the windows these hooks
// sit in (enqueue→park and dequeue→post) have no transaction attempt to
// abort — so abort-shaped decisions degrade to instant no-ops (still
// traced as injected).
func (cv *CondVar) faultWindow(p fault.Point, lane uint64) {
	d := cv.e.Fault().At(p)
	if d.Action == fault.ActNone {
		return
	}
	cv.e.Tracer().Emit(lane, obs.EvFaultInject, int64(p), int64(d.Action))
	d.Pause()
}

func (cv *CondVar) acquireNode() *Node {
	return cv.pool.Get().(*Node)
}

// sanitizeOn reports whether the runtime sanitizer's condvar checks run.
func (cv *CondVar) sanitizeOn() bool {
	return cv.e.DebugChecks()
}

func (cv *CondVar) releaseNode(n *Node) {
	if cv.sanitizeOn() {
		if n.inQueue.Load() {
			panic("core: sanitizer: condvar node released while still linked in the wait queue — the queue now holds a dangling entry whose wake-up the owner will never consume")
		}
		if len(n.wake) != 0 {
			panic("core: sanitizer: condvar node released with a post still in its slot — the next waiter to draw it from the pool would wake spuriously")
		}
	}
	// Retire this incarnation: any notification still in flight against
	// the old one is a bug the generation check will catch.
	n.gen.Add(1)
	n.inQueue.Store(false)
	// noteWake consumed these on every legal path; clear anyway so a
	// recycled node never inherits a stale batch or flow.
	n.batch.Store(nil)
	n.wakeID.Store(0)
	n.tag.StoreDirect(nil) // cvlint:ignore directstore woken node is owner-private (Section 3.3)
	cv.pool.Put(n)
}

// enqueue inserts n into the wait queue, flat-nesting into tx when the
// caller is transactional, or running its own transaction otherwise
// (Algorithm 4 lines 2–8).
func (cv *CondVar) enqueue(tx *stm.Tx, n *Node) {
	// The Swap runs once per enqueue (outside the retryable body): a node
	// observed already-queued here is reachable from the queue twice,
	// which corrupts the list the moment either incarnation is unlinked.
	// An aborted enclosing transaction abandons its node (a fresh one is
	// acquired on retry), so the flag is never stale on this path.
	if n.inQueue.Swap(true) && cv.sanitizeOn() {
		panic("core: sanitizer: condvar node enqueued while still linked in the wait queue (double WAIT on one node, or a recycled node the queue still references)")
	}
	n.enqueuedNS.Store(monoNS())
	n.notifiedNS.Store(0)
	n.parkedNS.Store(0)
	if tx != nil {
		tx.Atomic(n.enqBody)
	} else {
		cv.e.MustAtomic(n.enqBody)
	}
}

// enqueueBody is the transactional insert of one node, bound into the
// node's cached enqBody closure at newNode so the park path does not
// rebuild it on every Wait. Like Algorithm 4 it registers no commit
// handler.
func (cv *CondVar) enqueueBody(tx *stm.Tx, n *Node) {
	// Attempt-buffered: an aborted attempt's enqueue never shows in
	// the trace.
	tx.Trace(obs.EvCVEnqueue, int64(n.id), int64(cv.id))
	t := stm.Read(tx, cv.tail)
	if t == nil {
		stm.Write(tx, cv.head, n)
	} else {
		stm.Write(tx, t.next, n)
	}
	stm.Write(tx, cv.tail, n)
}

// enqueueSelf is the front half of every WAIT (Algorithm 4 lines 1–8):
// take a node from the pool, privatize it, and insert it into the wait
// queue — inside tx when the caller is transactional, in its own
// transaction otherwise. The caller then ends its sync block (line 9)
// and hands the node to park.
func (cv *CondVar) enqueueSelf(tx *stm.Tx, tag any) *Node {
	n := cv.acquireNode()
	n.next.StoreDirect(nil) // line 1: the node is private here; cvlint:ignore directstore privatized (Section 3.3)
	if tag != nil {
		n.tag.StoreDirect(tag) // cvlint:ignore directstore pre-enqueue: node is owner-private (Section 3.3)
	}
	cv.enqueue(tx, n) // lines 2–8
	return n
}

// park is the back half of every WAIT (Algorithm 4 line 10 and the
// abortable variants): sleep on the enqueued node's semaphore, settle
// the timeout/cancel race, record the wake and return the node to the
// pool (only its immutable id may be read afterwards). loser selects the
// SEMWAIT: obs.WakeByWaiter sleeps until notified, obs.WakeByTimeout
// gives up after d, obs.WakeByCancel when ctx is done. It reports the
// consumed wake's flow id (0 when none) and whether the wait ended by
// notification.
//
// Giving up races with notification, and one removeNode transaction
// settles it: it serializes against any in-flight notifier, so exactly
// one of them dequeues the node. If the node was still queued, the wait
// timed out or was cancelled. Otherwise a notifier got it first and its
// post is in the slot or imminent (after its outer transaction
// commits), so the notification wins: the loser consumes the post —
// abandoning it would strand it in the pooled node and wake a future,
// unrelated waiter spuriously — and the wake is attributed to the loser
// kind. cmd/modelcheck's ImplTimedWaiter models exactly this path.
func (cv *CondVar) park(n *Node, loser int64, d time.Duration, ctx context.Context) (flow uint64, notified bool) {
	// Fault hook: the paper's lost-wakeup window — enqueued and visible
	// to notifiers, sync block over, but not yet asleep. A notify landing
	// here must be memorized in the node's slot, never lost.
	cv.faultWindow(fault.CVEnqueue, n.id)
	by := obs.WakeByWaiter
	if !cv.semWait(n, loser, d, ctx) {
		if cv.removeNode(n) {
			cv.releaseNode(n)
			if cv.st != nil {
				if loser == obs.WakeByTimeout {
					cv.st.Timeouts.Inc()
				} else {
					cv.st.Cancels.Inc()
				}
			}
			return 0, false
		}
		<-n.wake
		by = loser
	}
	flow = cv.noteWake(n, by)
	cv.releaseNode(n)
	return flow, true
}

// semWait is the SEMWAIT on n's slot (Algorithm 4 line 10). It takes a
// post already in the slot without parking; otherwise it deschedules
// until the post arrives or, for a loser kind, d elapses or ctx is
// done. A non-positive d or an already-done ctx gives up without
// parking or arming a timer. It reports whether it took the post.
func (cv *CondVar) semWait(n *Node, loser int64, d time.Duration, ctx context.Context) bool {
	select {
	case <-n.wake:
		if cv.st != nil {
			cv.st.Sem.FastWaits.Inc()
		}
		return true
	default:
	}
	var expired <-chan time.Time
	var done <-chan struct{}
	switch loser {
	case obs.WakeByTimeout:
		if d <= 0 {
			return false
		}
		t := time.NewTimer(d)
		defer t.Stop()
		expired = t.C
	case obs.WakeByCancel:
		if ctx.Err() != nil {
			return false
		}
		done = ctx.Done()
	}

	// The park: one clock read for the WaitChain stamp, the rest only
	// when an instrument is attached. The label is cleared only if this
	// park set it, so a gate that flips mid-park neither strands a label
	// nor wipes one the goroutine set itself.
	start := monoNS()
	n.parkedNS.Store(start)
	tr := cv.e.Tracer()
	if tr.Enabled() {
		tr.Emit(n.id, obs.EvSemPark, 0, 0)
	}
	labelled := obs.ParkLabelsEnabled()
	if labelled {
		labelParked(n.id)
	}
	woken := true
	if expired == nil && done == nil {
		<-n.wake // the untimed hot path: a plain receive, no select
	} else {
		select {
		case <-n.wake:
		case <-expired:
			woken = false
		case <-done:
			woken = false
		}
	}
	if labelled {
		clearParkLabel()
	}
	if cv.st != nil || tr.Enabled() {
		dur := monoNS() - start
		if cv.st != nil {
			cv.st.Sem.Blocks.Inc()
			cv.st.Sem.ParkNanos.Observe(dur)
		}
		if tr.Enabled() {
			tr.EmitEvent(obs.Event{TS: tr.Now() - dur, Dur: dur, Type: obs.EvSemUnpark, Lane: n.id})
		}
	}
	return woken
}

// Wait is Algorithm 4: the continuation-passing WAIT.
//
// The caller must hold the synchronization context described by s (the
// locks locked, or the transaction live). Wait enqueues the caller's
// semaphore (inside s's transaction if there is one, else in its own),
// completes the sync block (releases the locks / commits the transaction
// early), sleeps on the semaphore, and — once notified — runs cont under a
// re-established context of the same kind. A nil cont elides the
// re-establishment entirely (the empty-continuation fast path of Sections
// 4.1 and 4.3: no lock re-acquire, no new transaction).
//
// There are no spurious wake-ups: Wait returns only after a matching
// NotifyOne/NotifyAll/NotifyBest posted this thread's semaphore.
func (cv *CondVar) Wait(s syncx.Sync, cont func(syncx.Sync)) {
	cv.WaitTagged(s, nil, cont)
}

// flowCont wraps a continuation so its re-established transaction is
// bound into the wake flow that resumed waiter node (an EvWakeTxn flow
// step, commit-deferred via Tx.TraceFlow: an aborted continuation
// attempt never claims its wake). When there is no flow to bind or the
// tracer is disarmed it returns cont unchanged — no closure allocation
// on the zero-overhead path.
func (cv *CondVar) flowCont(flow, node uint64, cont func(syncx.Sync)) func(syncx.Sync) {
	if flow == 0 || !cv.e.Tracer().Enabled() {
		return cont
	}
	return func(s syncx.Sync) {
		if tx := s.Tx(); tx != nil {
			tx.TraceFlow(obs.EvWakeTxn, flow, int64(node), 0)
		}
		cont(s)
	}
}

// WaitTagged is Wait with a predicate descriptor the NotifyBest selector
// can inspect (Section 3.4's "additional parameter provided to the WAIT
// operation to describe the predicate upon which each thread is waiting").
func (cv *CondVar) WaitTagged(s syncx.Sync, tag any, cont func(syncx.Sync)) {
	n := cv.enqueueSelf(s.Tx(), tag)
	s.End() // line 9: break atomicity
	flow, _ := cv.park(n, obs.WakeByWaiter, 0, nil)
	if cont != nil {
		s.Exec(cv.flowCont(flow, n.id, cont)) // lines 11–13
	}
}

// WaitLocked is the legacy (pthread-shaped) WAIT for lock-based callers:
// indistinguishable from pthread_cond_wait except that it never wakes
// spuriously. The caller holds m; on return the caller holds m again and
// executes its own continuation in place (Section 4.1's "remove lines
// 12–13" variant).
func (cv *CondVar) WaitLocked(m *syncx.Mutex) {
	n := cv.enqueueSelf(nil, nil)
	m.Unlock()
	cv.park(n, obs.WakeByWaiter, 0, nil)
	m.Lock()
}

// WaitLockedTimeout is WaitLocked with a deadline — the
// pthread_cond_timedwait of this interface. It reports true if the wait
// ended by notification and false on timeout. On either path the caller
// holds m again when it returns.
//
// A timeout races with notification: if a notifier dequeued this waiter
// before the waiter could unlink itself, the notification wins — the
// (possibly commit-deferred) semaphore post is consumed and the wait
// reports true. No wake-up is ever lost and no node leaks.
func (cv *CondVar) WaitLockedTimeout(m *syncx.Mutex, d time.Duration) bool {
	n := cv.enqueueSelf(nil, nil)
	m.Unlock()
	_, notified := cv.park(n, obs.WakeByTimeout, d, nil)
	m.Lock()
	return notified
}

// WaitLockedCtx is WaitLocked with cancellation — the abortable wait
// that production sync frameworks treat as the load-bearing primitive
// (PAPERS.md, CQS). It reports true if the wait ended by notification
// and false on cancellation. On either path the caller holds m again
// when it returns.
//
// Cancellation races with notification exactly as WaitLockedTimeout's
// timeout does: if a notifier dequeued this waiter before the waiter
// could unlink itself, the notification wins — the (possibly
// commit-deferred) post is consumed from the node's slot and the wait
// reports true. No wake-up is ever lost, no post is stranded in a
// released node's slot, and no node leaks into the recycled pool while
// still queue-reachable (releaseNode's sanitizer checks assert both).
func (cv *CondVar) WaitLockedCtx(m *syncx.Mutex, ctx context.Context) bool {
	n := cv.enqueueSelf(nil, nil)
	m.Unlock()
	_, notified := cv.park(n, obs.WakeByCancel, 0, ctx)
	m.Lock()
	return notified
}

// WaitCtx is the continuation-passing Wait with cancellation, for
// callers holding an arbitrary synchronization context. It reports true
// if the wait ended by notification — in which case cont (if non-nil)
// ran under a re-established context — and false on cancellation, in
// which case cont does NOT run and no synchronization context is held
// on return (the sync block was already broken before sleeping; a
// cancelled caller re-establishes context itself if it needs one).
//
// The cancel/notify race resolves as in WaitLockedCtx: the notification
// wins, and its permit is always consumed.
func (cv *CondVar) WaitCtx(s syncx.Sync, ctx context.Context, cont func(syncx.Sync)) bool {
	n := cv.enqueueSelf(s.Tx(), nil)
	s.End()
	flow, notified := cv.park(n, obs.WakeByCancel, 0, ctx)
	if notified && cont != nil {
		s.Exec(cv.flowCont(flow, n.id, cont))
	}
	return notified
}

// removeNode unlinks target from the wait queue, reporting whether it was
// still enqueued. It always runs its own top-level transaction, so the
// unlink is committed by the time MustAtomic returns.
func (cv *CondVar) removeNode(target *Node) bool {
	found := false
	cv.e.MustAtomic(func(tx *stm.Tx) {
		found = false
		var prev *Node
		for n := stm.Read(tx, cv.head); n != nil; n = stm.Read(tx, n.next) {
			if n == target {
				nx := stm.Read(tx, n.next)
				if prev == nil {
					stm.Write(tx, cv.head, nx)
				} else {
					stm.Write(tx, prev.next, nx)
				}
				if nx == nil {
					stm.Write(tx, cv.tail, prev)
				}
				found = true
				return
			}
			prev = n
		}
	})
	if found {
		target.inQueue.Store(false)
	}
	return found
}

// WaitTx is the manually-refactored transactional WAIT the paper's
// evaluation uses for TMParsec (Section 5.3 chose refactoring over CPS).
// It enqueues inside tx, commits tx early, and sleeps. On return **no
// transaction is active**; the caller re-enters atomicity itself, usually
// by looping:
//
//	for {
//	    done := false
//	    e.Atomic(func(tx *stm.Tx) {
//	        if predicate(tx) { consume(tx); done = true; return }
//	        cv.WaitTx(tx)
//	    })
//	    if done { return }
//	}
//
// The re-check loop handles oblivious wake-ups (several predicates on one
// condvar), not spurious ones — there are none.
func (cv *CondVar) WaitTx(tx *stm.Tx) {
	n := cv.enqueueSelf(tx, nil)
	tx.CommitEarly()
	if flow, _ := cv.park(n, obs.WakeByWaiter, 0, nil); flow != 0 {
		// Bind the waiter's resumed transaction into the wake flow. tx is
		// post-CommitEarly, so TraceFlow emits directly on the txn lane —
		// the code from here to the lexical end runs exactly once.
		tx.TraceFlow(obs.EvWakeTxn, flow, int64(n.id), 0)
	}
}

// WaitAtCommit is the second empty-continuation alternative of Section
// 4.3: "remove line 9 of WAIT, schedule line 10 via RegisterHandler, and
// then return". It enqueues the caller inside tx and registers an
// onCommit handler that performs the SEMWAIT; WAIT itself returns
// immediately. Control flows back to the caller, which must reach its
// ENDTRANSACTION with no further work; the commit publishes the enqueue
// and then the handler parks the goroutine until a notify.
//
// Compared with WaitTx this avoids the early-commit machinery entirely —
// the transaction commits at its natural lexical end — at the cost of
// requiring the wait to be the caller's final action. Use it in the same
// re-check loop as WaitTx:
//
//	for {
//	    done := false
//	    e.Atomic(func(tx *stm.Tx) {
//	        if predicate(tx) { consume(tx); done = true; return }
//	        cv.WaitAtCommit(tx) // sleeps after this txn commits
//	    })
//	    if done { return }
//	}
func (cv *CondVar) WaitAtCommit(tx *stm.Tx) {
	n := cv.enqueueSelf(tx, nil)
	tx.OnCommit(func() { cv.park(n, obs.WakeByWaiter, 0, nil) })
}

// wakeNode performs the committed post of one dequeued node: the fault
// window, the enqueue→notify latency observation, the causal wake stamp,
// the sempost trace event, and the post itself: one send into the node's
// slot, which cannot block (one post per dequeue, and the slot is empty
// at enqueue). wakeID is the flow id the committed notify minted.
func (cv *CondVar) wakeNode(n *Node, wakeID uint64) {
	// Fault hook: stall between the committed dequeue and the semaphore
	// post — the window in which a timed-out or cancelled waiter races a
	// wake-up it can no longer refuse.
	cv.faultWindow(fault.CVNotify, n.id)
	now := monoNS()
	if cv.st != nil {
		if enq := n.enqueuedNS.Load(); enq != 0 {
			cv.st.EnqueueToNotify.Observe(now - enq)
		}
		cv.st.Sem.Posts.Inc()
	}
	// Stored before the send: the channel hand-off orders these stores
	// before the woken waiter's reads in noteWake (DESIGN.md §15).
	n.notifiedNS.Store(now)
	n.wakeID.Store(wakeID)
	if tr := cv.e.Tracer(); tr.Enabled() {
		tr.Emit(n.id, obs.EvCVSemPost, int64(n.id), 0)
		tr.EmitFlow(n.id, obs.EvWakePost, wakeID, 0, 0)
	}
	n.inQueue.Store(false)
	n.wake <- struct{}{}
}

// notifyCommitted is the committed side of a single-node notification:
// the wake flow's root plus the wakeNode post. It runs exactly once per
// real dequeue — from the notifier's commit handler, or directly for a
// naked/lock-based notifier.
func (cv *CondVar) notifyCommitted(n *Node) {
	// Mint the causal wake id here — the moment the notify became real
	// (the commit handler fired, or a non-transactional notifier dequeued).
	wakeID := cv.e.NextWakeID()
	if tr := cv.e.Tracer(); tr.Enabled() {
		tr.EmitFlow(cv.id, obs.EvWakeRoot, wakeID, 1, int64(cv.id))
	}
	cv.wakeNode(n, wakeID)
}

// wakeCommitted is the committed side of a batched NotifyAll/NotifyN,
// Algorithm 6's commit handler: the batch's sanitizer generation
// checks, then one semaphore post per dequeued waiter, in queue order.
func (cv *CondVar) wakeCommitted(nodes []*Node, gens []uint64) {
	total := len(nodes) // never 0: an empty dequeue registers no handler
	for i, n := range nodes {
		cv.checkGen(n, gens[i])
	}
	var wb *wakeBatch
	if cv.st != nil {
		wb = &wakeBatch{startNS: monoNS()}
		wb.remaining.Store(int64(total))
	}
	// One wakeID per committed batch: every post of this broadcast
	// carries it (the flow id of the wake trace).
	wakeID := cv.e.NextWakeID()
	if tr := cv.e.Tracer(); tr.Enabled() {
		tr.EmitFlow(cv.id, obs.EvWakeRoot, wakeID, int64(total), int64(cv.id))
	}
	for _, n := range nodes {
		n.batch.Store(wb)
		cv.wakeNode(n, wakeID)
	}
}

// noteWake records the waiter side of a wake-up: the notify→wake latency
// (runtime rescheduling cost), the batch's commit-to-last-wake
// observation, the consumer-kind instruments, and the wake trace events.
// It must run before releaseNode, which retires the node's incarnation.
// by is the consumer code (obs.WakeBy*): a live waiter, or a
// timeout/cancel loser that kept a raced permit. It returns the consumed
// flow id so the resume path can bind the waiter's next transaction into
// the wake flow (Wait's continuation wrapper, WaitTx's post-resume step).
func (cv *CondVar) noteWake(n *Node, by int64) (flow uint64) {
	flow = n.wakeID.Swap(0)
	if wb := n.batch.Swap(nil); wb != nil && wb.remaining.Add(-1) == 0 {
		cv.st.BroadcastNanos.Observe(monoNS() - wb.startNS)
	}
	if cv.st != nil {
		cv.st.Waits.Inc()
		if ns := n.notifiedNS.Load(); ns != 0 {
			cv.st.NotifyToWake.Observe(monoNS() - ns)
		}
		cv.st.WakeChainDepth.Observe(1)
		cv.st.WakeConsumed[by].Inc()
	}
	if cv.consumedOn {
		cv.consumed[by].Inc()
	}
	if tr := cv.e.Tracer(); tr.Enabled() {
		tr.Emit(n.id, obs.EvCVWake, int64(n.id), int64(cv.id))
		if flow != 0 {
			tr.EmitFlow(n.id, obs.EvWakeEnd, flow, 0, by)
		}
	}
	return flow
}

// notifyPost arranges for node's semaphore to be posted: at commit of the
// outermost transaction when one is live (Algorithm 5 line 9), or
// immediately for naked/lock-based callers (tx == nil).
func (cv *CondVar) notifyPost(tx *stm.Tx, n *Node) {
	if tx == nil {
		if tr := cv.e.Tracer(); tr.Enabled() {
			tr.Emit(n.id, obs.EvCVNotify, int64(n.id), int64(cv.id))
		}
		cv.notifyCommitted(n)
		return
	}
	// Attempt-buffered: an aborted attempt's notify leaves no trace.
	tx.Trace(obs.EvCVNotify, int64(n.id), int64(cv.id))
	// Capture the node's incarnation at dequeue time: the commit handler
	// must wake the waiter that was unlinked, not whoever owns a recycled
	// node later (ABA). The body may re-run on conflict; each attempt
	// re-captures against its own dequeue.
	gen := n.gen.Load()
	tx.OnCommit(func() {
		cv.checkGen(n, gen)
		cv.notifyCommitted(n)
	})
}

// checkGen is the sanitizer's ABA check at commit: n must still be the
// incarnation whose generation the dequeue captured.
func (cv *CondVar) checkGen(n *Node, gen uint64) {
	if cv.sanitizeOn() && n.gen.Load() != gen {
		panic(fmt.Sprintf(
			"core: sanitizer: notification committed against a recycled condvar node (generation %d at dequeue, %d at post) — the wake-up would go to the wrong waiter (ABA)",
			gen, n.gen.Load()))
	}
}

// NotifyOne is Algorithm 5: dequeue the longest-waiting waiter and
// schedule its wake-up. Pass the live transaction when calling from one,
// or nil from lock-based/unsynchronized code. It reports whether a waiter
// was found.
//
// When called inside a transaction the wake-up happens only if and when
// that transaction commits — a NotifyOne from an aborted transaction wakes
// nobody.
func (cv *CondVar) NotifyOne(tx *stm.Tx) bool {
	found := false
	body := func(tx *stm.Tx) {
		found = false
		sn := stm.Read(tx, cv.head)
		if sn == nil {
			return
		}
		nx := stm.Read(tx, sn.next)
		if nx == nil {
			stm.Write(tx, cv.head, nil)
			stm.Write(tx, cv.tail, nil)
		} else {
			stm.Write(tx, cv.head, nx)
		}
		cv.notifyPost(tx, sn)
		found = true
	}
	if tx != nil {
		tx.Atomic(body)
	} else {
		cv.e.MustAtomic(body)
	}
	if cv.st != nil {
		if found {
			cv.st.NotifyOnes.Inc()
			cv.st.Woken.Inc()
		} else {
			cv.st.NotifyEmpty.Inc()
		}
	}
	return found
}

// notifyBatch is the shared body of NotifyAll and NotifyN: unlink up to
// max waiters (max < 0 means all), schedule one commit handler
// (wakeCommitted) that posts the whole batch, and count the call. It
// returns the number dequeued.
func (cv *CondVar) notifyBatch(tx *stm.Tx, max int) int {
	count := 0
	body := func(tx *stm.Tx) {
		count = 0
		sn := stm.Read(tx, cv.head)
		if sn == nil {
			return
		}
		// Per-attempt collections: a retried attempt rebuilds them from
		// its own consistent snapshot, and the commit handler closes over
		// exactly the attempt that committed.
		var nodes []*Node
		var gens []uint64
		// Every next-link access happens inside the transaction
		// (Section 3.3's race-freedom argument).
		for sn != nil && (max < 0 || count < max) {
			// Attempt-buffered: an aborted attempt's notify leaves no
			// trace. The node's incarnation is captured at dequeue so
			// the committed batch can detect recycling (ABA), same as
			// the single-node path.
			tx.Trace(obs.EvCVNotify, int64(sn.id), int64(cv.id))
			nodes = append(nodes, sn)
			gens = append(gens, sn.gen.Load())
			count++
			sn = stm.Read(tx, sn.next)
		}
		stm.Write(tx, cv.head, sn)
		if sn == nil {
			stm.Write(tx, cv.tail, nil)
		}
		tx.OnCommit(func() { cv.wakeCommitted(nodes, gens) })
	}
	if tx != nil {
		tx.Atomic(body)
	} else {
		cv.e.MustAtomic(body)
	}
	if cv.st != nil {
		if count > 0 {
			cv.st.NotifyAlls.Inc()
			cv.st.Woken.Add(int64(count))
		} else {
			cv.st.NotifyEmpty.Inc()
		}
	}
	return count
}

// NotifyAll is Algorithm 6: dequeue every waiter and schedule all their
// wake-ups. It returns the number of waiters notified.
//
// One transaction dequeues the whole set and registers one commit
// handler, which posts each waiter's semaphore in queue order (see
// wakeCommitted).
func (cv *CondVar) NotifyAll(tx *stm.Tx) int {
	return cv.notifyBatch(tx, -1)
}

// NotifyN dequeues and wakes at most max waiters (in queue order) as one
// batch, leaving the rest enqueued — a paced partial broadcast for
// callers that know how much new capacity a state change created (e.g.
// a task queue that just received k items). It returns the number of
// waiters notified. NotifyN(tx, -1) behaves as NotifyAll; max == 0 is a
// no-op.
func (cv *CondVar) NotifyN(tx *stm.Tx, max int) int {
	if max == 0 {
		return 0
	}
	return cv.notifyBatch(tx, max)
}

// NotifyBest is the Section 3.4 extension: traverse the waiting set and
// wake the single waiter whose tag the selector scores highest (ties go to
// the earlier-enqueued waiter; waiters that score negative are skipped).
// It reports whether a waiter was woken.
//
// Traditional OS condvars cannot offer this — their waiter set is opaque
// kernel state, which is why the oblivious NotifyAll pattern exists.
func (cv *CondVar) NotifyBest(tx *stm.Tx, score func(tag any) int64) bool {
	found := false
	body := func(tx *stm.Tx) {
		found = false
		var best, bestPrev *Node
		bestScore := int64(-1)
		var prev *Node
		for n := stm.Read(tx, cv.head); n != nil; n = stm.Read(tx, n.next) {
			if s := score(stm.Read(tx, n.tag)); s > bestScore {
				best, bestPrev, bestScore = n, prev, s
			}
			prev = n
		}
		if best == nil {
			return
		}
		// Unlink best.
		nx := stm.Read(tx, best.next)
		if bestPrev == nil {
			stm.Write(tx, cv.head, nx)
		} else {
			stm.Write(tx, bestPrev.next, nx)
		}
		if nx == nil {
			stm.Write(tx, cv.tail, bestPrev)
		}
		cv.notifyPost(tx, best)
		found = true
	}
	if tx != nil {
		tx.Atomic(body)
	} else {
		cv.e.MustAtomic(body)
	}
	if cv.st != nil {
		if found {
			cv.st.NotifyOnes.Inc()
			cv.st.Woken.Inc()
		} else {
			cv.st.NotifyEmpty.Inc()
		}
	}
	return found
}

// Len returns the current number of enqueued waiters, counted by walking
// the queue in its own read-only transaction (for diagnostics, tests and
// the cv_queue_depth scrape).
func (cv *CondVar) Len() int {
	n := 0
	_ = cv.e.AtomicRead(func(tx *stm.Tx) {
		n = 0
		for c := stm.Read(tx, cv.head); c != nil; c = stm.Read(tx, c.next) {
			n++
		}
	})
	return n
}
