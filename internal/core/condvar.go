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
	Waits      obs.Counter // completed WAIT operations
	NotifyOnes obs.Counter // committed single-waiter dequeues (NotifyOne, NotifyBest)
	NotifyAlls obs.Counter // committed NotifyAll/NotifyN batches
	Timeouts   obs.Counter // timed waits that expired un-notified
	Cancels    obs.Counter // context waits that ended cancelled

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
// The link lies in the condvar's stripe, with head and tail, and is
// meaningful only while the node is queued and not the tail: the tail's
// link is whatever it was when the node last left a queue, and every
// walk stops at the tail without reading it (succ).
//
// The semaphore is wake, a capacity-1 channel: one waiter parks on it
// and one notifier posts it once per dequeue, so the slot is empty at
// every enqueue and the post never blocks.
type Node struct {
	wake chan struct{}
	next *stm.Var[*Node]
	tag  *stm.Var[any] // optional predicate descriptor for NotifyBest
	// cv is the condvar whose pool made the node: the pre-bound commit
	// handlers reach it through their node argument.
	cv *CondVar

	// id identifies the node in trace output (the lane its enqueue →
	// notify → sempost → wake chain renders on).
	id uint64

	// Observability timestamps, as atomic monotonic nanoseconds since
	// the package epoch (zero = unset), taken only while something reads
	// them (DESIGN.md §10.3): enqueuedNS for a stats sink or a wait-chain
	// reader, parkedNS for those or an armed tracer, notifiedNS for a
	// stats sink. The owner/notifier hand-off alone would make plain
	// fields race-free (the enqueue commit orders the enqueue stamp
	// before any notifier's read; the semaphore hand-off orders the
	// notify stamp before the waiter's read), but the introspection
	// scraper (WaitChain) reads them from arbitrary goroutines with no
	// such ordering — hence atomics.
	enqueuedNS atomic.Int64
	notifiedNS atomic.Int64
	// parkedNS stamps the owner's park (zero until it deschedules): the
	// park age WaitChain reports.
	parkedNS atomic.Int64

	// Sanitizer bookkeeping, maintained only while the engine's debug
	// checks are on (see sanitizeOn). inQueue tracks whether the node is
	// reachable from the wait queue; gen counts pool recycles, so a
	// notification that outlives the node it targeted is detected (ABA).
	// inQueue is set only under checks, but cleared whenever it is set,
	// so checks switched on later never see a flag a dequeue left behind.
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
	// committed notify's armed tracer minted (0 when none was armed),
	// stored by wakeNode before the semaphore post and consumed
	// (Swap(0)) by the woken owner in noteWake. The semaphore hand-off
	// orders the store before the owner's read; the atomic keeps
	// concurrent scrapers safe, like the timestamps above.
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
	// stripe is the one orec of head, tail and every node's link: the
	// lock a naked or lock-based queue operation takes first.
	stripe stm.Stripe
	pool   sync.Pool
	st     *CVStats

	// id tags this condvar's trace events (see cvSeq); name is the
	// attribution label set by SetName — a setup-time field like st.
	id   uint64
	name string

	// chained is set by RegisterIntrospect: a registry reads this
	// condvar's WaitChain, so waits stamp their enqueue and park ages.
	chained atomic.Bool
}

// New creates a condition variable whose internal transactions run on e.
//
// head, tail and every node's next link are one stripe (one orec), as
// libitm's ml_wt maps a small queue's words to one orec: every queue
// operation locks that one orec, and a caller with no transaction of its
// own runs it as a one-stripe transaction (stm.Engine.AtomicStripe),
// which locks the orec before its first access (DESIGN.md §16.5).
func New(e *stm.Engine, _ Options) *CondVar {
	head := stm.NewVar[*Node](e, nil)
	cv := &CondVar{
		e:      e,
		head:   head,
		tail:   stm.NewVarInStripe(head, nil),
		stripe: head.Stripe(),
		id:     cvSeq.Add(1),
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
		cv:   cv,
		id:   nodeSeq.Add(1),
		wake: make(chan struct{}, 1),
		next: stm.NewVarInStripe(cv.head, nil),
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
		// Retire this incarnation: any notification still in flight
		// against the old one is a bug the generation check will catch.
		n.gen.Add(1)
	}
	clearFlag(&n.inQueue)
	// noteWake consumed these on every legal path; clear anyway so a
	// recycled node never inherits a stale batch or flow.
	if n.batch.Load() != nil {
		n.batch.Store(nil)
	}
	if n.wakeID.Load() != 0 {
		n.wakeID.Store(0)
	}
	// Only a tagged node is cleared: storing a nil any boxes it, one
	// allocation on every untagged wait.
	if n.tag.LoadDirect() != nil { // cvlint:ignore directstore woken node is owner-private (Section 3.3)
		n.tag.StoreDirect(nil) // cvlint:ignore directstore woken node is owner-private (Section 3.3)
	}
	cv.pool.Put(n)
}

// enqueue inserts n into the wait queue, flat-nesting into tx when the
// caller is transactional, or running its own one-stripe transaction
// otherwise (Algorithm 4 lines 2–8).
func (cv *CondVar) enqueue(tx *stm.Tx, n *Node) {
	// The Swap runs once per enqueue (outside the retryable body): a node
	// observed already-queued here is reachable from the queue twice,
	// which corrupts the list the moment either incarnation is unlinked.
	// An aborted enclosing transaction abandons its node (a fresh one is
	// acquired on retry), so the flag is never stale on this path.
	if cv.sanitizeOn() && n.inQueue.Swap(true) {
		panic("core: sanitizer: condvar node enqueued while still linked in the wait queue (double WAIT on one node, or a recycled node the queue still references)")
	}
	// A stamp is written only when its value changes: a disarmed cycle
	// finds all three already zero and writes none.
	if cv.st != nil || cv.chained.Load() {
		n.enqueuedNS.Store(monoNS())
	} else {
		clearStamp(&n.enqueuedNS)
	}
	clearStamp(&n.notifiedNS)
	clearStamp(&n.parkedNS)
	cv.atomic(tx, n.enqBody)
}

// atomic runs a queue operation's body: flat-nested into tx when the
// caller is transactional, else as a one-stripe transaction on the
// queue's stripe, which every access of a body that touches only head,
// tail and links falls in.
func (cv *CondVar) atomic(tx *stm.Tx, body func(*stm.Tx)) {
	if tx != nil {
		tx.Atomic(body)
	} else {
		cv.e.AtomicStripe(cv.stripe, body)
	}
}

// enqueueBody is the transactional insert of one node, bound into the
// node's cached enqBody closure at newNode so the park path does not
// rebuild it on every Wait. Like Algorithm 4 it registers no commit
// handler. It has no line 1 (n.next := nil): n becomes the tail, whose
// link no walk reads, and a doomed enqueuer whose snapshot still has n
// as tail cannot write n's link, because that write needs the stripe's
// orec, whose version has moved past its snapshot (DESIGN.md §7.2).
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

// enqueueSelf is the front half of every WAIT (Algorithm 4 lines 2–8):
// take a node from the pool and insert it into the wait queue — inside
// tx when the caller is transactional, in its own transaction otherwise.
// The caller then ends its sync block (line 9) and hands the node to
// park.
func (cv *CondVar) enqueueSelf(tx *stm.Tx, tag any) *Node {
	n := cv.acquireNode()
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

	// The park. Whether it reads the clock is decided once, here: only
	// for a reader of the park stamp (a wait-chain reader, a stats sink
	// or an armed tracer), so a tracer armed mid-park never measures from
	// a zero start.
	tr := cv.e.Tracer()
	timed := cv.st != nil || cv.chained.Load() || tr.Enabled()
	var start int64
	if timed {
		start = monoNS()
		n.parkedNS.Store(start)
	}
	if tr.Enabled() {
		tr.Emit(n.id, obs.EvSemPark, 0, 0)
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
	if timed && (cv.st != nil || tr.Enabled()) {
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
	cv.waitLocked(m, obs.WakeByWaiter, 0, nil)
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
	return cv.waitLocked(m, obs.WakeByTimeout, d, nil)
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
	return cv.waitLocked(m, obs.WakeByCancel, 0, ctx)
}

// waitLocked is the one body of the three lock-based WAITs: enqueue,
// release m, park as loser (see park), re-acquire m.
func (cv *CondVar) waitLocked(m *syncx.Mutex, loser int64, d time.Duration, ctx context.Context) bool {
	n := cv.enqueueSelf(nil, nil)
	m.Unlock()
	_, notified := cv.park(n, loser, d, ctx)
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
// still enqueued. It always runs its own one-stripe transaction, so the
// unlink is committed by the time AtomicStripe returns.
func (cv *CondVar) removeNode(target *Node) bool {
	found := false
	cv.e.AtomicStripe(cv.stripe, func(tx *stm.Tx) {
		found = false
		tail := stm.Read(tx, cv.tail)
		var prev *Node
		for n := stm.Read(tx, cv.head); n != nil; n = succ(tx, n, tail) {
			if n == target {
				cv.unlink(tx, prev, n, tail)
				found = true
				return
			}
			prev = n
		}
	})
	if found {
		clearFlag(&target.inQueue)
	}
	return found
}

// succ is n's successor in the queue whose tail is tail: nil for the
// tail, whose link is stale and never read, else n's next link. Every
// walk of the queue steps through it.
func succ(tx *stm.Tx, n, tail *Node) *Node {
	if n == tail {
		return nil
	}
	return stm.Read(tx, n.next)
}

// unlink removes n from the wait queue inside tx; prev is its
// predecessor, nil when n is the head, and tail the queue's tail. It is
// the one mid-queue removal, shared by a loser's removeNode and
// NotifyBest. Unlinking the tail makes prev the tail, whose link is then
// left as it is.
func (cv *CondVar) unlink(tx *stm.Tx, prev, n, tail *Node) {
	nx := succ(tx, n, tail)
	switch {
	case prev == nil:
		stm.Write(tx, cv.head, nx)
	case nx != nil:
		stm.Write(tx, prev.next, nx)
	}
	if nx == nil {
		stm.Write(tx, cv.tail, prev)
	}
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
	tx.PushCommitArg(n, 0)
	tx.OnCommitCall(parkCommitted)
}

// parkCommitted is WaitAtCommit's pre-bound commit handler: the SEMWAIT
// of its one node argument.
func parkCommitted(args []stm.CommitArg) {
	n := args[0].P.(*Node)
	n.cv.park(n, obs.WakeByWaiter, 0, nil)
}

// wakeNode performs the committed post of one dequeued node: the fault
// window, the enqueue→notify latency observation, the causal wake stamp,
// the sempost trace event, and the post itself: one send into the node's
// slot, which cannot block (one post per dequeue, and the slot is empty
// at enqueue). wakeID is the flow id the committed notify minted, 0 when
// no tracer was armed.
func (cv *CondVar) wakeNode(n *Node, wakeID uint64) {
	// Fault hook: stall between the committed dequeue and the semaphore
	// post — the window in which a timed-out or cancelled waiter races a
	// wake-up it can no longer refuse.
	cv.faultWindow(fault.CVNotify, n.id)
	// Stored before the send: the channel hand-off orders these stores
	// before the woken waiter's reads in noteWake (DESIGN.md §15). The
	// notify stamp's one reader is the stats sink (NotifyToWake).
	if cv.st != nil {
		now := monoNS()
		if enq := n.enqueuedNS.Load(); enq != 0 {
			cv.st.EnqueueToNotify.Observe(now - enq)
		}
		cv.st.Sem.Posts.Inc()
		n.notifiedNS.Store(now)
	}
	if wakeID != 0 {
		n.wakeID.Store(wakeID)
	}
	if tr := cv.e.Tracer(); tr.Enabled() {
		tr.Emit(n.id, obs.EvCVSemPost, int64(n.id), 0)
		tr.EmitFlow(n.id, obs.EvWakePost, wakeID, 0, 0)
	}
	clearFlag(&n.inQueue)
	n.wake <- struct{}{}
}

// wakeOne (NotifyOne, NotifyBest) and wakeAll (NotifyAll, NotifyN) are
// the pre-bound commit handlers of every notify: wakeCommitted, bound to
// the stats its batch counts.
func wakeOne(batch []stm.CommitArg) { wakeCommitted(batch, false) }
func wakeAll(batch []stm.CommitArg) { wakeCommitted(batch, true) }

// wakeCommitted is the committed side of a notify (Algorithm 5 line 9,
// Algorithm 6): the sanitizer's generation checks, the count (for all,
// NotifyAlls and the commit-to-last-wake record; else NotifyOnes), the
// wake flow's root, then one post per dequeued node, in queue order. It
// runs once per committed dequeue: an aborted notify posts nothing.
func wakeCommitted(batch []stm.CommitArg, all bool) {
	total := len(batch) // never 0: an empty dequeue registers no handler
	cv := batch[0].P.(*Node).cv
	for _, a := range batch {
		cv.checkGen(a.P.(*Node), a.N)
	}
	var wb *wakeBatch
	if cv.st != nil {
		if all {
			cv.st.NotifyAlls.Inc()
			wb = &wakeBatch{startNS: monoNS()}
			wb.remaining.Store(int64(total))
		} else {
			cv.st.NotifyOnes.Inc()
		}
	}
	// One wakeID per committed notify, minted by the armed tracer that
	// carries it (0 while disarmed): every post of the batch shares it.
	tr := cv.e.Tracer()
	wakeID := tr.NextFlow()
	tr.EmitFlow(cv.id, obs.EvWakeRoot, wakeID, int64(total), int64(cv.id))
	for _, a := range batch {
		n := a.P.(*Node)
		if wb != nil {
			n.batch.Store(wb)
		}
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
	// Each word is swapped only after a non-zero load: a disarmed wake
	// finds both zero and writes neither.
	if n.wakeID.Load() != 0 {
		flow = n.wakeID.Swap(0)
	}
	if n.batch.Load() != nil {
		if wb := n.batch.Swap(nil); wb.remaining.Add(-1) == 0 {
			cv.st.BroadcastNanos.Observe(monoNS() - wb.startNS)
		}
	}
	if cv.st != nil {
		cv.st.Waits.Inc()
		if ns := n.notifiedNS.Load(); ns != 0 {
			cv.st.NotifyToWake.Observe(monoNS() - ns)
		}
		cv.st.WakeChainDepth.Observe(1)
		cv.st.WakeConsumed[by].Inc()
	}
	if tr := cv.e.Tracer(); tr.Enabled() {
		tr.Emit(n.id, obs.EvCVWake, int64(n.id), int64(cv.id))
		if flow != 0 {
			tr.EmitFlow(n.id, obs.EvWakeEnd, flow, 0, by)
		}
	}
	return flow
}

// notifyPost adds dequeued node n to the batch of the commit handler
// the notify body registers in tx, its own transaction.
func (cv *CondVar) notifyPost(tx *stm.Tx, n *Node) {
	// Attempt-buffered: an aborted attempt's notify leaves no trace.
	tx.Trace(obs.EvCVNotify, int64(n.id), int64(cv.id))
	// Capture the node's incarnation at dequeue time: the commit handler
	// must wake the waiter that was unlinked, not whoever owns a recycled
	// node later (ABA). The body may re-run on conflict; each attempt
	// re-captures against its own dequeue, and an aborted attempt's
	// arguments are discarded with it.
	tx.PushCommitArg(n, n.gen.Load())
}

// clearStamp zeroes a node stamp unless it is zero already: a plain
// load, where an unconditional atomic store is a locked instruction.
func clearStamp(w *atomic.Int64) {
	if w.Load() != 0 {
		w.Store(0)
	}
}

// clearFlag clears a node flag unless it is clear already.
func clearFlag(f *atomic.Bool) {
	if f.Load() {
		f.Store(false)
	}
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

// nakedEmpty reports whether a naked notify (tx == nil) may return at
// once: one consistent read of head (stm.Peek) found the queue empty,
// which linearizes the notify as one that found no waiter, without a
// transaction. It reports false whenever Peek cannot tell, and always
// for a transactional caller, whose emptiness read must stay in its own
// read set.
func (cv *CondVar) nakedEmpty(tx *stm.Tx) bool {
	if tx != nil {
		return false
	}
	h, ok := stm.Peek(cv.head)
	return ok && h == nil
}

// NotifyOne is Algorithm 5: dequeue the longest-waiting waiter and
// schedule its wake-up. Pass the live transaction when calling from one,
// or nil from lock-based/unsynchronized code. It reports whether a waiter
// was found.
//
// When called inside a transaction the wake-up happens only if and when
// that transaction commits — a NotifyOne from an aborted transaction wakes
// nobody. A naked NotifyOne that finds the queue empty returns after one
// consistent read of head, with no transaction (nakedEmpty); so do naked
// NotifyAll, NotifyN and NotifyBest.
func (cv *CondVar) NotifyOne(tx *stm.Tx) bool {
	return cv.notify(tx, 1, wakeOne) == 1
}

// notify is the one dequeue of NotifyOne, NotifyAll and NotifyN: unlink
// up to max waiters from the head (max < 0 means all) and register post
// as the commit handler over them. It returns the number dequeued.
func (cv *CondVar) notify(tx *stm.Tx, max int, post func([]stm.CommitArg)) int {
	if cv.nakedEmpty(tx) {
		return 0
	}
	count := 0
	cv.atomic(tx, func(tx *stm.Tx) {
		count = 0
		sn := stm.Read(tx, cv.head)
		if sn == nil {
			return
		}
		tail := stm.Read(tx, cv.tail)
		// The batch is the handler's argument list, pushed into the
		// Tx's retained log: an aborted attempt's list is discarded with
		// it, and the committing attempt's list is the one posted.
		// Every next-link access happens inside the transaction
		// (Section 3.3's race-freedom argument).
		for sn != nil && (max < 0 || count < max) {
			cv.notifyPost(tx, sn)
			count++
			sn = succ(tx, sn, tail)
		}
		stm.Write(tx, cv.head, sn)
		if sn == nil {
			stm.Write(tx, cv.tail, nil)
		}
		tx.OnCommitCall(post)
	})
	return count
}

// NotifyAll is Algorithm 6: one transaction dequeues every waiter and
// registers one commit handler that posts them in queue order. It
// returns the number of waiters notified.
func (cv *CondVar) NotifyAll(tx *stm.Tx) int {
	return cv.notify(tx, -1, wakeAll)
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
	return cv.notify(tx, max, wakeAll)
}

// NotifyBest is the Section 3.4 extension: traverse the waiting set and
// wake the single waiter whose tag the selector scores highest (ties go to
// the earlier-enqueued waiter; waiters that score negative are skipped).
// It reports whether a waiter was woken.
//
// Traditional OS condvars cannot offer this — their waiter set is opaque
// kernel state, which is why the oblivious NotifyAll pattern exists.
func (cv *CondVar) NotifyBest(tx *stm.Tx, score func(tag any) int64) bool {
	if cv.nakedEmpty(tx) {
		return false
	}
	found := false
	body := func(tx *stm.Tx) {
		found = false
		var best, bestPrev *Node
		bestScore := int64(-1)
		var prev *Node
		tail := stm.Read(tx, cv.tail)
		for n := stm.Read(tx, cv.head); n != nil; n = succ(tx, n, tail) {
			if s := score(stm.Read(tx, n.tag)); s > bestScore {
				best, bestPrev, bestScore = n, prev, s
			}
			prev = n
		}
		if best == nil {
			return
		}
		cv.unlink(tx, bestPrev, best, tail)
		cv.notifyPost(tx, best)
		tx.OnCommitCall(wakeOne)
		found = true
	}
	// The tags have orecs of their own, so a naked NotifyBest runs an
	// ordinary transaction, not a one-stripe one.
	if tx != nil {
		tx.Atomic(body)
	} else {
		cv.e.MustAtomic(body)
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
		tail := stm.Read(tx, cv.tail)
		for c := stm.Read(tx, cv.head); c != nil; c = succ(tx, c, tail) {
			n++
		}
	})
	return n
}
