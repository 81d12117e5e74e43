package stm

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// mode selects the access/commit algorithm for one transaction attempt.
type mode int

const (
	modeWriteThrough mode = iota // encounter-time locking, undo log (ml_wt)
	modeHTM                      // simulated best-effort hardware TM, redo log
	modeSerial                   // irrevocable, under the global serial lock
	modeStripe                   // one orec locked up front (Engine.AtomicStripe)
)

// txStatus is the lifecycle state of a Tx.
type txStatus int

const (
	txActive txStatus = iota
	txCommitted
	txAborted
)

// abortCause classifies why an attempt aborted, for statistics and for the
// retry policy.
type abortCause int

const (
	causeConflict abortCause = iota
	causeCapacity            // HTM read/write-set overflow
	causeSyscall             // HTM abort due to a system call in the txn
	causeCancel              // user called Cancel
	causeRetry               // user called Retry (Harris-style wait)
)

// abortSignal is the panic payload used for non-local exit out of the
// atomic function when an attempt must abort. It never escapes the
// package: Engine.Atomic recovers it.
type abortSignal struct {
	cause abortCause
	err   error // for causeCancel
}

// readEntry records one transactional read for validation (snapshot
// extension and the commit of an attempt that wrote).
// b rides along for contention attribution: when validation fails, the
// failing entry names the Var that was disturbed (profile.go).
type readEntry struct {
	o   *orec
	ver uint64
	b   *varBase
}

// undoEntry records the pre-image of one write-through store.
type undoEntry struct {
	b   *varBase
	old any // box[T]
}

// writeEntry is one redo-buffer slot.
type writeEntry struct {
	b *varBase
	v any // box[T]
}

// ownedEntry records an orec this transaction locked and its pre-lock
// version, or an orec a serial transaction wrote (prev unused: a serial
// commit always stamps it).
type ownedEntry struct {
	o    *orec
	prev uint64
}

// Tx is one transaction. Engine.Atomic runs each attempt on a pooled Tx
// and passes it to the atomic function; it must not be retained after
// the function returns, shared between goroutines, or used after
// CommitEarly.
type Tx struct {
	e *Engine
	// id is the owner id in this Tx's orec lock words, minted when the
	// pool creates the Tx (unique among live transactions, which is all a
	// lock word needs) and re-minted per attempt only while a tracer is
	// armed, so that each attempt has its own trace lane.
	id uint64
	// slot is this Tx's serial-gate slot, bound when the pool creates
	// it: the reader count it raises and the commit counters it adds to.
	slot   *gateSlot
	start  uint64 // global-clock snapshot this attempt reads against
	status txStatus
	mode   mode
	depth  int // flat-nesting depth; 0 = outermost

	reads []readEntry
	// writes is the redo buffer (HTM), kept as an ordered slice with
	// linear lookup: transactions touch a handful of locations ("fewer
	// than 10", Section 5.4), where a scan beats a map and allocates
	// nothing after warm-up.
	writes []writeEntry
	undo   []undoEntry  // pre-images (write-through)
	owned  []ownedEntry // orecs this txn holds, with pre-lock versions

	accesses int // HTM capacity accounting

	onCommit []commitHandler
	onAbort  []func()
	// args is the argument log of the pre-bound handlers (OnCommitCall):
	// each registration takes the arguments pushed since the previous one
	// (args[argMark:]). Like the other logs it keeps its capacity across
	// attempts, so a steady-state registration allocates nothing.
	args    []CommitArg
	argMark int

	gateHeld   bool // counted in its slot's readers (optimistic attempt)
	serialHeld bool // holds the serial gate exclusively (modeSerial)
	readOnly   bool // AtomicRead: Write panics
	attempt    int

	// A one-stripe transaction's orec (modeStripe), the version it held
	// when locked, and whether a Write has stored into the stripe.
	stripe    *orec
	stripeVer uint64
	wrote     bool

	// began is the attempt's start time, for CommitNanos and the trace
	// spans. It is read only for a timed attempt — every attempt while a
	// tracer is armed, else about one in commitSampleEvery, counted down
	// by sampleLeft (Engine.beginClock) — and is zero otherwise.
	began      time.Time
	sampleLeft uint8
	// pend buffers trace events emitted during this attempt (Tx.Trace).
	// They reach the tracer only if the attempt commits — the trace-level
	// analogue of the paper's SEMPOST deferral — and are discarded by
	// rollback, so aborted attempts leave only their terminal abort event.
	pend []obs.Event

	// conflictB is the Var blamed for this attempt's abort, set by the
	// abort site (a plain pointer store) and consumed by rollback's
	// recordAbort; nil when no specific Var was identified.
	conflictB *varBase
}

// Engine returns the engine this transaction runs on.
func (tx *Tx) Engine() *Engine { return tx.e }

// Active reports whether the transaction can still perform reads and
// writes (i.e. it has not committed early, committed, or aborted).
func (tx *Tx) Active() bool { return tx.status == txActive }

// Serial reports whether this attempt is executing irrevocably under the
// global serial lock (either via AtomicRelaxed or after the fallback).
func (tx *Tx) Serial() bool { return tx.mode == modeSerial }

// irrevocable reports whether this transaction cannot roll back: a
// serial one, or a one-stripe one (AtomicStripe).
func (tx *Tx) irrevocable() bool { return tx.mode >= modeSerial }

// Attempt returns the zero-based retry attempt number of this execution.
func (tx *Tx) Attempt() int { return tx.attempt }

// ensureActive panics unless the transaction is active. It inlines into
// every Read and Write; the panic message is built out of line.
func (tx *Tx) ensureActive(op string) {
	if tx.status != txActive {
		tx.inactivePanic(op)
	}
}

func (tx *Tx) inactivePanic(op string) {
	panic(fmt.Sprintf("stm: %s on %s transaction (did code run after CommitEarly/Wait?)", op, tx.statusString()))
}

func (tx *Tx) statusString() string {
	switch tx.status {
	case txActive:
		return "active"
	case txCommitted:
		return "committed"
	default:
		return "aborted"
	}
}

// OnCommit registers f to run after the outermost transaction commits
// (immediately, in program order of registration). If the transaction
// aborts, f is discarded. This is the paper's RegisterHandler (Algorithm
// 5, line 9): the condition variable uses it to defer SEMPOST past commit,
// so no wake-up is caused by a transaction that does not commit, and no
// semaphore operation runs inside a (hardware) transaction. It is
// OnCommitCall(callFunc) over the one argument f: a func value is
// pointer-shaped, so boxing it allocates nothing.
func (tx *Tx) OnCommit(f func()) {
	tx.ensureActive("OnCommit")
	tx.PushCommitArg(f, 0)
	tx.OnCommitCall(callFunc)
}

// callFunc is OnCommit's pre-bound handler: it calls its one argument.
func callFunc(args []CommitArg) { args[0].P.(func())() }

// CommitArg is one argument slot of a pre-bound commit handler. P holds
// a pointer (an interface holding a pointer does not allocate) and N a
// word that travels with it, such as a generation stamp.
type CommitArg struct {
	P any
	N uint64
}

// commitHandler is one registered commit handler: a function over
// args[lo:hi] of the Tx's argument log.
type commitHandler struct {
	fn     func([]CommitArg)
	lo, hi int
}

// PushCommitArg appends one argument for the next OnCommitCall.
func (tx *Tx) PushCommitArg(p any, n uint64) {
	tx.ensureActive("PushCommitArg")
	tx.args = append(tx.args, CommitArg{p, n})
}

// OnCommitCall registers fn to run after the outermost transaction
// commits, called with every argument pushed by PushCommitArg since the
// previous OnCommitCall, in push order. It is the shape of the paper's
// RegisterHandler(SEMPOST, node): a handler plus its argument.
// Registered with a top-level function, it allocates nothing once the
// Tx's logs are warm. Handlers run in registration order, and an abort
// discards them with their arguments. fn must not retain its argument
// slice, which the Tx reuses.
func (tx *Tx) OnCommitCall(fn func([]CommitArg)) {
	tx.ensureActive("OnCommitCall")
	lo, hi := tx.argMark, len(tx.args)
	tx.argMark = hi
	tx.onCommit = append(tx.onCommit, commitHandler{fn: tx.wrapOnCommit(fn), lo: lo, hi: hi})
}

// OnAbort registers f to run if this attempt aborts (before the retry).
// Used by Saved to restore checkpointed locals.
func (tx *Tx) OnAbort(f func()) {
	tx.ensureActive("OnAbort")
	tx.onAbort = append(tx.onAbort, f)
}

// Atomic runs fn as a nested transaction. Nesting is flat (Section 4.3):
// fn executes inside the same transaction, and an abort anywhere rolls
// back the whole flattened transaction.
func (tx *Tx) Atomic(fn func(*Tx)) {
	tx.ensureActive("nested Atomic")
	tx.depth++
	defer func() { tx.depth-- }()
	fn(tx)
}

// Depth returns the current flat-nesting depth (0 at the outermost level).
func (tx *Tx) Depth() int { return tx.depth }

// Cancel aborts the transaction permanently: Atomic stops retrying and
// returns err. Panics if called on an irrevocable (serial or one-stripe)
// transaction, which by definition cannot roll back.
func (tx *Tx) Cancel(err error) {
	tx.ensureActive("Cancel")
	if tx.irrevocable() {
		panic("stm: Cancel inside an irrevocable (serial, relaxed or one-stripe) transaction")
	}
	panic(abortSignal{cause: causeCancel, err: err})
}

// Restart aborts this attempt and retries the atomic function from the
// beginning (a user-requested retry; also counts toward the serial
// fallback threshold).
func (tx *Tx) Restart() {
	tx.ensureActive("Restart")
	if tx.irrevocable() {
		panic("stm: Restart inside an irrevocable (serial, relaxed or one-stripe) transaction")
	}
	panic(abortSignal{cause: causeConflict})
}

// Syscall marks a point where the transaction performs a system call. On
// the simulated HTM this aborts the hardware attempt (as RTM does) and
// directs the retry policy straight to the serial fallback; on software
// engines it is a no-op. The condition variable never triggers this — its
// whole design keeps SEMWAIT/SEMPOST outside transactions — but workloads
// doing I/O inside transactions (dedup) hit it.
func (tx *Tx) Syscall() {
	tx.ensureActive("Syscall")
	if tx.mode == modeHTM {
		panic(abortSignal{cause: causeSyscall})
	}
}

func (tx *Tx) ownsOrec(o *orec) bool {
	for i := range tx.owned {
		if tx.owned[i].o == o {
			return true
		}
	}
	return false
}

func (tx *Tx) abortConflict() {
	panic(abortSignal{cause: causeConflict})
}

// abortConflictOn is abortConflict with the conflicting Var recorded
// for attribution. Only rollback reads it.
func (tx *Tx) abortConflictOn(b *varBase) {
	tx.conflictB = b
	panic(abortSignal{cause: causeConflict})
}

// extendHook, set only by tests, runs in readShared between a read's
// consistent pair and the snapshot extension that read triggers.
var extendHook func()

// readShared performs a consistent versioned read of b's published value
// and logs it in the read set. Shared by all optimistic modes.
func (tx *Tx) readShared(b *varBase) any {
	o := b.o
	for spin := 0; ; spin++ {
		w1 := o.load()
		if isLocked(w1) {
			tx.abortConflictOn(b)
		}
		val := b.val.Load()
		w2 := o.load()
		if w1 != w2 {
			if tx.mode == modeHTM {
				tx.abortConflictOn(b) // eager HTM: any disturbance aborts
			}
			continue // value changed underfoot; re-read
		}
		if versionOf(w1) > tx.start {
			// The location changed after our snapshot. Software modes
			// try a timestamp extension (revalidate the read set and
			// advance the snapshot); HTM aborts immediately.
			if extendHook != nil {
				extendHook()
			}
			if tx.mode == modeHTM || !tx.extend() {
				tx.abortConflictOn(b)
			}
			// Extension succeeded: the prior reads hold at the new
			// snapshot, but this one was read before extend loaded the
			// clock, and a writer may have locked the orec and drawn a
			// stamp at or below the new snapshot in between. Accepting
			// (val, w1) then lets a later read see that writer's
			// commit beside this pre-commit value: a torn snapshot,
			// which an AtomicRead commits as is. Re-read unless the
			// orec still holds w1 after the clock load, which puts
			// (val, w1) at the new snapshot too.
			if o.load() != w1 {
				continue
			}
		}
		tx.reads = append(tx.reads, readEntry{o, versionOf(w1), b})
		tx.noteAccess()
		return val
	}
}

// extend revalidates every logged read and, if all still hold, advances
// the snapshot to the current clock. Reports success. The clock is
// loaded before validation: the reads are then known unchanged at some
// instant at or after the new snapshot.
func (tx *Tx) extend() bool {
	now := tx.e.clock.Load()
	for _, r := range tx.reads {
		w := r.o.load()
		if isLocked(w) {
			if prev, mine := tx.ownedVersion(r.o); mine {
				if r.ver != prev {
					return false
				}
				continue
			}
			return false
		}
		if versionOf(w) != r.ver {
			return false
		}
	}
	tx.start = now
	tx.e.Stats.Extensions.Inc()
	return true
}

func (tx *Tx) ownedVersion(o *orec) (uint64, bool) {
	for i := range tx.owned {
		if tx.owned[i].o == o {
			return tx.owned[i].prev, true
		}
	}
	return 0, false
}

// findWrite returns the redo-buffer value for b, if any.
func (tx *Tx) findWrite(b *varBase) (any, bool) {
	for i := range tx.writes {
		if tx.writes[i].b == b {
			return tx.writes[i].v, true
		}
	}
	return nil, false
}

// bufferWrite records a redo-log write (HTM mode).
func (tx *Tx) bufferWrite(b *varBase, boxed any) {
	for i := range tx.writes {
		if tx.writes[i].b == b {
			tx.writes[i].v = boxed
			return
		}
	}
	tx.writes = append(tx.writes, writeEntry{b, boxed})
	tx.noteAccess()
}

// writeThrough performs an encounter-time locked in-place write with undo
// logging (the ml_wt discipline).
func (tx *Tx) writeThrough(b *varBase, boxed any) {
	o := b.o
	if !tx.ownsOrec(o) {
		// Fault hook: encounter-time orec acquisition. An injected abort
		// blames the Var being written, like an organic acquisition
		// failure would (attribution must survive chaos runs).
		if d := tx.faultAt(fault.OrecAcquire); d.Action == fault.ActAbort || d.Action == fault.ActCapacity {
			tx.conflictB = b
			tx.faultPanic(d)
		}
		w := o.load()
		if isLocked(w) {
			tx.abortConflictOn(b) // no waiting: deadlock-free by construction
		}
		if versionOf(w) > tx.start {
			if !tx.extend() {
				tx.abortConflictOn(b)
			}
		}
		if !o.cas(w, lockWord(tx.id)) {
			tx.abortConflictOn(b)
		}
		tx.owned = append(tx.owned, ownedEntry{o, versionOf(w)})
	}
	tx.undo = append(tx.undo, undoEntry{b, b.val.Load()})
	b.val.Store(boxed)
	tx.noteAccess()
}

func (tx *Tx) noteAccess() {
	tx.accesses++
	if tx.mode == modeHTM && tx.accesses > tx.e.cfg.HTMCapacity {
		panic(abortSignal{cause: causeCapacity})
	}
}

// validateReads checks every logged read against the current orec state.
// A read is valid if its orec is unlocked at the logged version, or locked
// by this transaction with the logged version as the pre-lock version. On
// failure the disturbed Var is recorded for attribution (the caller
// always proceeds to roll back).
func (tx *Tx) validateReads() bool {
	for _, r := range tx.reads {
		w := r.o.load()
		if isLocked(w) {
			if ownerOf(w) == tx.id {
				if prev, _ := tx.ownedVersion(r.o); prev == r.ver {
					continue
				}
			}
			tx.conflictB = r.b
			return false
		}
		if versionOf(w) != r.ver {
			tx.conflictB = r.b
			return false
		}
	}
	return true
}

// tryCommit attempts to commit an optimistic attempt (serial ones commit
// through commitSerial). On success the transaction is marked committed;
// the caller runs the handlers. On failure the transaction has been
// fully rolled back and unlocked, and tryCommit reports false.
func (tx *Tx) tryCommit() bool {
	// Fault hook: pre-commit, before any validation or lock acquisition
	// (an injected abort here needs only the ordinary rollback path).
	tx.faultPanic(tx.faultAt(fault.PreCommit))
	if len(tx.owned) == 0 && len(tx.writes) == 0 {
		// Wrote nothing: commit at the snapshot. readShared checked
		// every read against tx.start when it was made and aborted or
		// extended on anything newer, so the reads all held together
		// at tx.start — no lock, no stamp, no revalidation.
		tx.status = txCommitted
		return true
	}
	if tx.mode == modeWriteThrough {
		if !tx.validateReads() {
			tx.rollback(causeConflict)
			return false
		}
		// Write set locked since encounter time, so the stamp is drawn
		// after locking: a reader whose snapshot is ≥ wv loaded the
		// clock after these orecs were locked.
		wv := tx.e.clock.Add(1)
		for i := range tx.owned {
			tx.owned[i].o.release(wv)
		}
		tx.wakeWatchersForOwned()
		tx.owned = tx.owned[:0]
		tx.status = txCommitted
		return true
	}
	// modeHTM: acquire all write orecs (encounter order; try-lock only).
	for i := range tx.writes {
		o := tx.writes[i].b.o
		if tx.ownsOrec(o) {
			continue
		}
		// Fault hook: commit-time orec acquisition. A panic here
		// unwinds to attemptOnce's recover, whose rollback releases the
		// orecs acquired so far to their pre-lock versions; the
		// injected abort blames the Var whose orec was being taken.
		if d := tx.faultAt(fault.OrecAcquire); d.Action == fault.ActAbort || d.Action == fault.ActCapacity {
			tx.conflictB = tx.writes[i].b
			tx.faultPanic(d)
		}
		w := o.load()
		if isLocked(w) || !o.cas(w, lockWord(tx.id)) {
			tx.conflictB = tx.writes[i].b
			tx.releaseOwnedToPrev()
			tx.rollback(causeConflict)
			return false
		}
		tx.owned = append(tx.owned, ownedEntry{o, versionOf(w)})
	}
	if !tx.validateReads() {
		tx.releaseOwnedToPrev()
		tx.rollback(causeConflict)
		return false
	}
	// Every write orec is held by now: the stamp postdates the locks.
	wv := tx.e.clock.Add(1)
	for i := range tx.writes {
		tx.writes[i].b.val.Store(tx.writes[i].v)
	}
	for i := range tx.owned {
		tx.owned[i].o.release(wv)
	}
	tx.wakeWatchersForOwned()
	tx.owned = tx.owned[:0]
	tx.status = txCommitted
	return true
}

// releaseOwnedToPrev unlocks every orec this transaction holds, restoring
// the pre-lock version (used when no published value changed).
func (tx *Tx) releaseOwnedToPrev() {
	for i := range tx.owned {
		tx.owned[i].o.release(tx.owned[i].prev)
	}
	tx.owned = tx.owned[:0]
}

// rollback undoes this attempt's effects and runs abort handlers. Safe to
// call once per attempt; the engine calls it when recovering an
// abortSignal, and tryCommit calls it on validation failure.
func (tx *Tx) rollback(cause abortCause) {
	if tx.status == txAborted {
		return
	}
	if tx.mode == modeWriteThrough && len(tx.undo) > 0 {
		// Undo in reverse so the oldest pre-image wins.
		for i := len(tx.undo) - 1; i >= 0; i-- {
			u := tx.undo[i]
			u.b.val.Store(u.old)
		}
	}
	if len(tx.owned) > 0 {
		if tx.mode == modeWriteThrough {
			// Concurrent readers may have observed intermediate
			// values; publish a fresh version to invalidate them.
			wv := tx.e.clock.Add(1)
			for i := range tx.owned {
				tx.owned[i].o.release(wv)
			}
			tx.wakeWatchersForOwned()
			tx.owned = tx.owned[:0]
		} else {
			tx.releaseOwnedToPrev()
		}
	}
	tx.status = txAborted
	for i := len(tx.onAbort) - 1; i >= 0; i-- {
		tx.onAbort[i]()
	}
	tx.onAbort = clearFuncs(tx.onAbort)
	tx.clearHandlers()
	tx.noteAborted(cause)
	tx.e.recordAbort(cause, tx.conflictB)
	tx.conflictB = nil
	st := &tx.e.Stats
	st.Aborts.Inc()
	switch cause {
	case causeCapacity:
		st.CapacityAborts.Inc()
	case causeSyscall:
		st.SyscallAborts.Inc()
	case causeCancel:
		st.ExplicitAborts.Inc()
	case causeRetry:
		st.RetryAborts.Inc()
	default:
		st.ConflictAborts.Inc()
	}
}

// count adds n to one of the commit-path counters on this Tx's slot line.
func (tx *Tx) count(k slotCount, n int64) { tx.slot.counts[k].Add(n) }

// clearFuncs empties a handler slice but keeps its capacity, dropping
// the closure references so the pool does not pin them alive.
func clearFuncs(fs []func()) []func() {
	fs = fs[:cap(fs)]
	for i := range fs {
		fs[i] = nil
	}
	return fs[:0]
}

// clearHandlers empties the commit handler and argument logs, keeping
// their capacity but dropping the closure and argument references so the
// pool does not pin them alive. Only this truncates the two logs, so
// nothing beyond their length is ever left set.
func (tx *Tx) clearHandlers() {
	clear(tx.onCommit)
	tx.onCommit = tx.onCommit[:0]
	clear(tx.args)
	tx.args = tx.args[:0]
	tx.argMark = 0
}

// runCommitHandlers executes onCommit handlers in registration order,
// then empties the logs. No append can land in them while the handlers
// run: the transaction is already committed, so any OnCommit,
// OnCommitCall or PushCommitArg from a handler panics via ensureActive.
func (tx *Tx) runCommitHandlers() {
	n := len(tx.onCommit)
	for _, h := range tx.onCommit {
		h.fn(tx.args[h.lo:h.hi])
	}
	tx.clearHandlers()
	if n > 0 {
		// Direct emission: handlers run strictly after the commit.
		tx.e.tracer.Emit(tx.id, obs.EvHandlerRun, int64(n), 0)
	}
}
