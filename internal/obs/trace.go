package obs

import (
	"sort"
	"sync/atomic"
	"time"
)

// EventType identifies one kind of lifecycle event. The set covers the
// full lifecycle the paper's algorithms imply: transaction start /
// abort-with-reason / commit / early-commit / serial episodes, onCommit
// handler execution, the condvar's enqueue → notify → sempost → wake
// chain, and semaphore park/unpark.
type EventType uint8

const (
	evInvalid EventType = iota

	EvTxnStart       // optimistic attempt began (buffered; surfaces only on commit)
	EvTxnCommit      // attempt committed; span event, A = attempts used
	EvTxnAbort       // attempt aborted; span event, A = abort reason, B = attempt index
	EvTxnEarlyCommit // CommitEarly punctuation (condvar WAIT path); A = attempts
	EvTxnSerial      // serial (irrevocable) episode; span event, A = attempts before fallback
	EvHandlerRun     // onCommit handlers ran after a commit; A = handler count

	EvCVEnqueue // waiter enqueued (Algorithm 4 lines 2-8); A = node id
	EvCVNotify  // notifier dequeued a waiter (Algorithm 5); A = node id
	EvCVSemPost // deferred SEMPOST executed at commit; A = node id
	EvCVWake    // woken waiter resumed after its SEMWAIT; A = node id

	EvSemPark   // condvar waiter about to deschedule on its node's slot; lane = node id
	EvSemUnpark // condvar waiter resumed; span event covering the park, lane = node id

	EvFaultInject // fault injector fired at a hook point; A = point, B = action

	// Causal wake-propagation events (DESIGN.md §15). All four carry the
	// wakeID (minted by Tracer.NextFlow) in Event.Flow, binding a committed
	// notify to each semaphore post it made and to the waiters that
	// consumed them.
	EvWakeRoot // committed notify minted a wakeID; Lane = cv id, A = batch size, B = cv id
	EvWakePost // dequeued waiter posted by the commit handler; Lane = node id
	EvWakeEnd  // wake consumed; Lane = node id, B = consumer code (WakeBy*)
	EvWakeTxn  // woken waiter's next commit; Lane = txn id, A = the waiter's node id
)

// String returns the exporter-facing event name.
func (t EventType) String() string {
	switch t {
	case EvTxnStart:
		return "txn.start"
	case EvTxnCommit:
		return "txn.commit"
	case EvTxnAbort:
		return "txn.abort"
	case EvTxnEarlyCommit:
		return "txn.commit.early"
	case EvTxnSerial:
		return "txn.serial"
	case EvHandlerRun:
		return "txn.handlers"
	case EvCVEnqueue:
		return "cv.enqueue"
	case EvCVNotify:
		return "cv.notify"
	case EvCVSemPost:
		return "cv.sempost"
	case EvCVWake:
		return "cv.wake"
	case EvSemPark:
		return "sem.park"
	case EvSemUnpark:
		return "sem.unpark"
	case EvFaultInject:
		return "fault.inject"
	case EvWakeRoot:
		return "cv.wake.root"
	case EvWakePost:
		return "cv.wake.post"
	case EvWakeEnd:
		return "cv.wake.consume"
	case EvWakeTxn:
		return "cv.wake.txn"
	default:
		return "unknown"
	}
}

// Category returns the subsystem label used as the Chrome trace category.
func (t EventType) Category() string {
	switch {
	case t >= EvTxnStart && t <= EvHandlerRun:
		return "stm"
	case t >= EvCVEnqueue && t <= EvCVWake:
		return "cv"
	case t >= EvWakeRoot && t <= EvWakeTxn:
		return "cv"
	case t == EvFaultInject:
		return "fault"
	default:
		return "sem"
	}
}

// Abort reasons carried in the A argument of EvTxnAbort events. They
// mirror the STM engine's abort causes one-to-one.
const (
	AbortConflict int64 = iota
	AbortCapacity
	AbortSyscall
	AbortCancel
	AbortRetry
)

// Consumer codes carried in the B argument of EvWakeEnd events: which
// kind of waiter consumed a wake. A timeout/cancel loser that keeps a
// raced permit reports notified, but the wake went to a waiter that had
// already given up, which is the signal cv_wake_consumed_total surfaces.
const (
	WakeByWaiter int64 = iota
	WakeByTimeout
	WakeByCancel
)

// WakeConsumerName names a wake-consumer code for export.
func WakeConsumerName(by int64) string {
	switch by {
	case WakeByWaiter:
		return "waiter"
	case WakeByTimeout:
		return "timeout"
	case WakeByCancel:
		return "cancel"
	default:
		return "unknown"
	}
}

// AbortReasonName names an abort reason code for export.
func AbortReasonName(r int64) string {
	switch r {
	case AbortConflict:
		return "conflict"
	case AbortCapacity:
		return "capacity"
	case AbortSyscall:
		return "syscall"
	case AbortCancel:
		return "cancel"
	case AbortRetry:
		return "retry"
	default:
		return "unknown"
	}
}

// Event is one trace record. TS is nanoseconds since the tracer's epoch;
// a non-zero Dur marks a span (complete) event covering [TS, TS+Dur].
// Lane identifies the logical track the event belongs to — a transaction
// id, a condvar node id, a semaphore — so related events line up in the
// viewer. A and B are type-specific arguments. A non-zero Flow is the
// causal-flow id (the wakeID of DESIGN.md §15) binding events of one
// wake flow across lanes; the Chrome exporter renders such events as flow
// events so the wake-ups show as arrows in existing dumps.
type Event struct {
	TS   int64
	Dur  int64
	Type EventType
	Lane uint64
	A, B int64
	Flow uint64
}

// slot is one ring-buffer cell. All fields are atomics so that the rare
// wrap-around collision (two writers claiming positions exactly capacity
// apart) is a torn event, not a data race. seq is the publication word:
// zero means empty, otherwise it is the 1-based claim ticket.
type slot struct {
	seq  atomic.Uint64
	ts   atomic.Int64
	dur  atomic.Int64
	typ  atomic.Int64
	lane atomic.Uint64
	a    atomic.Int64
	b    atomic.Int64
	flow atomic.Uint64
}

// shard is one independently appended ring. lost is the newest timestamp
// among the events this ring has overwritten (zero until it wraps).
type shard struct {
	pos  atomic.Uint64
	lost atomic.Int64
	_    [48]byte // keep each shard's cursor on its own cache line
	buf  []slot
}

const numShards = 16 // power of two; lanes hash across these

// Tracer is a sharded fixed-size ring-buffer event tracer. Appends are
// lock-free: the writer claims a slot with one fetch-add on its shard's
// cursor and publishes with atomic stores. When the tracer is disabled —
// the steady state — Emit is a single atomic load. When the ring wraps,
// the oldest events are overwritten; the trace is always the most recent
// window.
//
// Shards are selected by the caller-supplied lane (transaction id, condvar
// node id), which is owned by one goroutine at a time, so concurrent
// appenders land on different shards in practice — the per-goroutine
// sharding that keeps the enabled path off a single contended cache line.
//
// A nil *Tracer is valid and permanently disabled.
type Tracer struct {
	on     atomic.Bool
	epoch  time.Time
	shards [numShards]shard
	_      [64]byte      // keep flows off the lines Emit reads
	flows  atomic.Uint64 // last minted flow id (NextFlow)
}

// NewTracer creates a tracer holding up to capacity events (rounded up to
// a power-of-two multiple of the shard count; minimum 1024). The tracer
// starts disabled; call Enable to begin recording.
func NewTracer(capacity int) *Tracer {
	if capacity < 1024 {
		capacity = 1024
	}
	per := 1
	for per*numShards < capacity {
		per <<= 1
	}
	t := &Tracer{epoch: time.Now()}
	for i := range t.shards {
		t.shards[i].buf = make([]slot, per)
	}
	return t
}

// Enable turns recording on.
func (t *Tracer) Enable() { t.on.Store(true) }

// Disable turns recording off. In-flight appends may still land.
func (t *Tracer) Disable() { t.on.Store(false) }

// Enabled reports whether the tracer is recording. Safe on nil.
func (t *Tracer) Enabled() bool { return t != nil && t.on.Load() }

// NextFlow mints a causal flow id (a wakeID, DESIGN.md §15.1): non-zero
// and unique among this tracer's flows, however many engines share it.
// While the tracer is disarmed it returns 0 ("no flow") and writes
// nothing. Safe on nil.
func (t *Tracer) NextFlow() uint64 {
	if !t.Enabled() {
		return 0
	}
	return t.flows.Add(1)
}

// Now returns the current timestamp in the tracer's timebase
// (monotonic nanoseconds since the tracer was created).
func (t *Tracer) Now() int64 { return time.Since(t.epoch).Nanoseconds() }

// Emit records an instant event stamped now. It is the direct-emission
// path for code running outside any transaction attempt (commit handlers,
// woken waiters, semaphore parks). Inside an optimistic transaction body
// use stm.Tx.Trace instead, which buffers the event with the attempt and
// discards it on abort. Safe on nil.
func (t *Tracer) Emit(lane uint64, typ EventType, a, b int64) {
	if !t.Enabled() {
		return
	}
	t.record(Event{TS: t.Now(), Type: typ, Lane: lane, A: a, B: b})
}

// EmitFlow records an instant event stamped now and tagged with a causal
// flow id (a wakeID). Like Emit it is the direct-emission path for code
// running outside any transaction attempt — commit handlers and woken
// waiters, where the wake flow lives. Inside an optimistic transaction
// body use stm.Tx.TraceFlow, which buffers with the attempt. Safe on nil.
func (t *Tracer) EmitFlow(lane uint64, typ EventType, flow uint64, a, b int64) {
	if !t.Enabled() {
		return
	}
	t.record(Event{TS: t.Now(), Type: typ, Lane: lane, A: a, B: b, Flow: flow})
}

// EmitEvent records a pre-stamped event (buffered flushes and span
// events). Safe on nil.
func (t *Tracer) EmitEvent(ev Event) {
	if !t.Enabled() {
		return
	}
	t.record(ev)
}

func (t *Tracer) record(ev Event) {
	sh := &t.shards[ev.Lane&(numShards-1)]
	n := sh.pos.Add(1)
	s := &sh.buf[(n-1)&uint64(len(sh.buf)-1)]
	if n > uint64(len(sh.buf)) {
		// Overwriting: remember the newest timestamp lost (Horizon).
		old := s.ts.Load()
		for {
			cur := sh.lost.Load()
			if old <= cur || sh.lost.CompareAndSwap(cur, old) {
				break
			}
		}
	}
	s.ts.Store(ev.TS)
	s.dur.Store(ev.Dur)
	s.typ.Store(int64(ev.Type))
	s.lane.Store(ev.Lane)
	s.a.Store(ev.A)
	s.b.Store(ev.B)
	s.flow.Store(ev.Flow)
	s.seq.Store(n)
}

// Emitted returns the total number of events appended since creation
// (including any overwritten by ring wrap-around).
func (t *Tracer) Emitted() uint64 {
	if t == nil {
		return 0
	}
	var n uint64
	for i := range t.shards {
		n += t.shards[i].pos.Load()
	}
	return n
}

// Horizon returns the capture's retention horizon: the newest timestamp
// among the events wrap-around has overwritten, or zero when nothing was
// lost. The shards wrap independently, so a busy lane loses events that
// a quiet lane's contemporaries survive; anything that started at or
// before the horizon may be missing parts, anything after it is whole.
// Safe on nil.
func (t *Tracer) Horizon() int64 {
	if t == nil {
		return 0
	}
	var h int64
	for i := range t.shards {
		if l := t.shards[i].lost.Load(); l > h {
			h = l
		}
	}
	return h
}

// Events returns the retained events sorted by timestamp. Call it after
// emitters have quiesced (end of a run); events appended concurrently may
// be missed or torn. Safe on nil.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	var out []Event
	for i := range t.shards {
		sh := &t.shards[i]
		for j := range sh.buf {
			s := &sh.buf[j]
			if s.seq.Load() == 0 {
				continue
			}
			typ := EventType(s.typ.Load())
			if typ == evInvalid {
				continue
			}
			out = append(out, Event{
				TS:   s.ts.Load(),
				Dur:  s.dur.Load(),
				Type: typ,
				Lane: s.lane.Load(),
				A:    s.a.Load(),
				B:    s.b.Load(),
				Flow: s.flow.Load(),
			})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// Reset clears all retained events (the enabled state is unchanged).
// Quiesce emitters first.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.pos.Store(0)
		sh.lost.Store(0)
		for j := range sh.buf {
			sh.buf[j].seq.Store(0)
			sh.buf[j].typ.Store(0)
		}
	}
}
