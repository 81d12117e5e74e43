package stm

import (
	"math/rand/v2"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// Algorithm selects the TM algorithm an Engine runs.
type Algorithm int

const (
	// AlgWriteThrough is encounter-time orec locking with an undo log —
	// the shape of GCC libitm's ml_wt, which the paper uses on its
	// "Westmere" STM machine.
	AlgWriteThrough Algorithm = iota
	// AlgHTM simulates a best-effort hardware TM with lock-elision
	// fallback — the shape of the paper's "Haswell" machine. Capacity
	// overflows, conflicts and system calls abort the hardware attempt;
	// after MaxRetries the transaction runs serially under a global
	// lock.
	AlgHTM
)

func (a Algorithm) String() string {
	switch a {
	case AlgWriteThrough:
		return "ml_wt"
	case AlgHTM:
		return "htm"
	default:
		return "unknown"
	}
}

// Config parameterizes an Engine. The zero value selects sensible
// defaults (write-through, 16Ki orecs).
type Config struct {
	Algorithm Algorithm

	// OrecCount is the size of the striped ownership-record table,
	// rounded up to a power of two. Smaller tables produce more false
	// conflicts, as with address-hashed orec tables in real STMs.
	// Default 1<<14.
	OrecCount int

	// MaxRetries is the number of optimistic attempts before the serial
	// (global-lock) fallback. Default 16 for write-through, 6 for
	// HTM.
	MaxRetries int

	// HTMCapacity bounds the number of distinct transactional accesses a
	// simulated hardware transaction may perform before a capacity
	// abort. Default 64.
	HTMCapacity int

	// Name labels the engine in stats dumps.
	Name string
}

// backoffBase and backoffMax bound the randomized exponential backoff
// between optimistic attempts (see backoff).
const (
	backoffBase = 500 * time.Nanosecond
	backoffMax  = 100 * time.Microsecond
)

func (c Config) withDefaults() Config {
	if c.OrecCount <= 0 {
		c.OrecCount = 1 << 14
	}
	// Round up to a power of two.
	n := 1
	for n < c.OrecCount {
		n <<= 1
	}
	c.OrecCount = n
	if c.MaxRetries <= 0 {
		if c.Algorithm == AlgHTM {
			c.MaxRetries = 6
		} else {
			c.MaxRetries = 16
		}
	}
	if c.HTMCapacity <= 0 {
		c.HTMCapacity = 64
	}
	if c.Name == "" {
		c.Name = c.Algorithm.String()
	}
	return c
}

// TMStats aggregates engine activity. All fields are safe to read
// concurrently. The two counters a disarmed commit path adds to are
// SlotCounters, kept on the serial gate's slot lines; the rest are
// engine-wide and count work off that path: aborts, serial transactions,
// extensions and Retry.
type TMStats struct {
	Commits        SlotCounter // outermost commits (incl. serial)
	Aborts         obs.Counter // attempts rolled back
	ConflictAborts obs.Counter
	CapacityAborts obs.Counter // HTM read/write-set overflow
	SyscallAborts  obs.Counter // HTM abort due to Tx.Syscall
	ExplicitAborts obs.Counter // Tx.Cancel
	EarlyCommits   SlotCounter // Tx.CommitEarly (the condvar WAIT path)
	SerialCommits  obs.Counter // commits executed irrevocably
	SerialFallback obs.Counter // optimistic → serial transitions
	RelaxedTxns    obs.Counter // AtomicRelaxed invocations
	Extensions     obs.Counter // successful snapshot extensions
	RetryAborts    obs.Counter // attempts that called Retry
	RetryWaits     obs.Counter // Retry callers that actually slept
	RetryWakes     obs.Counter // sleeping retriers woken by commits

	// CommitNanos is the wall time of attempts that committed
	// (log2-bucketed), sampled: about one attempt in commitSampleEvery
	// reads the clock at its start and is observed if it commits, or
	// every attempt while a tracer is armed. The benchmark's stm.commit_p50_ns
	// and commit_p99_ns rungs read it.
	CommitNanos obs.Histogram
}

// SlotCounter is a TMStats counter kept on the serial gate's slots: a
// commit adds to its own Tx's slot line, so counting touches no
// engine-wide word, and Load sums the slots. The zero value reads 0.
type SlotCounter struct {
	slots *[gateSlots]gateSlot
	k     slotCount
}

// Load returns the counter's value, summed over the slots.
func (c *SlotCounter) Load() int64 {
	if c.slots == nil {
		return 0
	}
	var n int64
	for i := range c.slots {
		n += c.slots[i].counts[c.k].Load()
	}
	return n
}

// slotCount names one of the per-slot commit-path counters.
type slotCount int

const (
	slotCommits slotCount = iota
	slotEarlyCommits
	numSlotCounts
)

// gateSlots is the number of reader slots in the serial gate. Each
// pooled Tx is bound to one, by its id, when the pool creates it;
// sync.Pool keeps a Tx on one P, so in steady state each P raises its
// own slot. A slot shared by two Ps is still correct, only slower.
const gateSlots = 16

// slotStride is a gate slot's size: two 64-byte lines, so that the
// adjacent-line prefetcher does not pair two slots either.
const slotStride = 128

// gateSlot is one reader slot of the serial gate on lines of its own:
// the optimistic attempts in flight on it, and the commit-path counters
// their commits add to.
type gateSlot struct {
	readers atomic.Int64
	counts  [numSlotCounts]atomic.Int64
	_       [slotStride - 8*(1+numSlotCounts)]byte
}

// Snapshot returns all counters at one instant, keyed by name — handy for
// logging and for diffing across benchmark phases. It reads the same
// instrument table (introspect.go) that RegisterMetrics exports, so the
// JSON key set and the registry's metric set cannot drift apart.
func (s *TMStats) Snapshot() map[string]int64 {
	rows := s.scalars()
	out := make(map[string]int64, len(rows))
	for _, sc := range rows {
		out[sc.name] = sc.read()
	}
	return out
}

// Histograms returns snapshots of the latency histograms, keyed by name —
// the companion of Snapshot for the machine-readable metrics export.
func (s *TMStats) Histograms() map[string]obs.HistogramSnapshot {
	rows := s.histograms()
	out := make(map[string]obs.HistogramSnapshot, len(rows))
	for _, th := range rows {
		out[th.name] = th.h.Snapshot()
	}
	return out
}

// Engine is a transactional-memory runtime. Engines are independent: Vars
// belong to the engine that created them, and transactions only
// synchronize with transactions on the same engine.
type Engine struct {
	cfg Config
	// clock is TL2's global version clock: every commit that wrote
	// stamps its orecs with clock.Add(1), drawn after its write set is
	// locked; a commit that wrote nothing draws no stamp; every snapshot
	// is clock.Load().
	clock    atomic.Uint64
	txid     atomic.Uint64
	varSeq   atomic.Uint64
	orecs    []orec
	orecMask uint64

	// The serial gate, a distributed reader indicator (DESIGN.md §6.1):
	// an optimistic attempt raises the reader count of its Tx's slot
	// and then checks serialPending; a serial (irrevocable) transaction
	// write-locks serialRW, sets serialPending and waits on drainCond
	// until every slot has drained, excluding all optimism while it
	// runs. serialRW's read side is only the slow path's waiting room.
	slots         *[gateSlots]gateSlot
	serialPending atomic.Bool
	serialRW      sync.RWMutex
	drainMu       sync.Mutex
	drainCond     sync.Cond // L is drainMu
	// serialSample is the CommitNanos countdown of serial transactions,
	// guarded by serialRW's write side (an optimistic Tx keeps its own).
	serialSample uint8

	txPool sync.Pool // recycled *Tx, logs retaining capacity
	retry  retryHub  // sleeping Retry() callers, keyed by orec

	// debug enables the runtime sanitizer (see debug.go). Default set by
	// the stmsan build tag; toggled with SetDebugChecks.
	debug atomic.Bool

	// tracer is the attached event tracer (see trace.go); nil when
	// detached. Set during setup via SetTracer.
	tracer *obs.Tracer

	// fault is the attached fault injector (see fault.go); nil when
	// detached. Set during setup via SetFault.
	fault *fault.Injector

	// prof is the contention-attribution state (see profile.go). The
	// zero value is ready; it only grows when Vars are named.
	prof engineProfile

	Stats TMStats
}

// NewEngine creates an engine with the given configuration.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:      cfg,
		orecs:    make([]orec, cfg.OrecCount),
		orecMask: uint64(cfg.OrecCount - 1),
		slots:    new([gateSlots]gateSlot),
	}
	e.drainCond.L = &e.drainMu
	e.Stats.Commits = SlotCounter{e.slots, slotCommits}
	e.Stats.EarlyCommits = SlotCounter{e.slots, slotEarlyCommits}
	e.debug.Store(debugDefault)
	return e
}

// Config returns the engine's effective (defaulted) configuration.
func (e *Engine) Config() Config { return e.cfg }

// Name returns the engine's label.
func (e *Engine) Name() string { return e.cfg.Name }

// Now returns the global version clock: the newest commit timestamp
// issued so far (0 on a fresh engine). A commit draws a stamp only if it
// wrote: every such commit — optimistic or serial — and every
// write-through rollback that published values advances the clock by
// exactly one, while a commit that wrote nothing (an AtomicRead, or an
// Atomic whose body only read) leaves it alone.
func (e *Engine) Now() uint64 { return e.clock.Load() }

// newTx takes a Tx from the pool, admits it through the serial gate and
// starts an optimistic attempt on it. A Tx the pool creates is minted its
// id and bound to its gate slot here, once.
func (e *Engine) newTx(attempt int) *Tx {
	m := modeWriteThrough
	if e.cfg.Algorithm == AlgHTM {
		m = modeHTM
	}
	tx, _ := e.txPool.Get().(*Tx)
	if tx == nil {
		id := e.txid.Add(1)
		// A random phase: a new Tx's first attempt, which grows its
		// logs from nil, is no likelier to be timed than any other.
		tx = &Tx{e: e, id: id, slot: e.slotFor(id), sampleLeft: uint8(rand.IntN(commitSampleEvery))}
	}
	e.enterGate(tx.slot)
	tx.gateHeld = true
	tx.start = e.clock.Load()
	tx.mode = m
	tx.attempt = attempt
	tx.status = txActive
	tx.depth = 0
	tx.accesses = 0
	tx.serialHeld = false
	tx.readOnly = false
	tx.began = e.beginClock(&tx.sampleLeft)
	tx.pend = tx.pend[:0]
	tx.conflictB = nil
	tx.traceStart()
	return tx
}

// recycle returns a finished Tx to the pool. Log and handler slices
// keep their capacity — a steady-state attempt appends into warm arrays.
func (e *Engine) recycle(tx *Tx) {
	if tx.status == txActive {
		return // never recycle a live transaction
	}
	tx.reads = tx.reads[:0]
	tx.writes = tx.writes[:0]
	tx.undo = tx.undo[:0]
	tx.owned = tx.owned[:0]
	tx.clearHandlers()
	tx.onAbort = clearFuncs(tx.onAbort)
	tx.pend = tx.pend[:0]
	e.txPool.Put(tx)
}

// Atomic executes fn transactionally, retrying on conflict and falling
// back to serial-irrevocable execution after Config.MaxRetries attempts.
// It returns nil on commit, or the error passed to Tx.Cancel.
//
// fn may run multiple times; it must confine side effects to Vars, Tx
// handlers, and idempotent writes to captured locals (or protect the
// latter with Saved).
func (e *Engine) Atomic(fn func(*Tx)) error {
	return e.atomicImpl(fn, false)
}

// AtomicRead executes fn as a read-only transaction: any Write inside fn
// panics. That contract is all it adds to Atomic. Its commit, like every
// commit that wrote nothing, takes no lock, draws no stamp from the
// global clock and revalidates nothing (each read was checked against
// the snapshot when it was made), so it never makes another transaction
// abort. Retry, Cancel, nesting and the serial fallback behave as in
// Atomic.
func (e *Engine) AtomicRead(fn func(*Tx)) error {
	return e.atomicImpl(fn, true)
}

func (e *Engine) atomicImpl(fn func(*Tx), readOnly bool) error {
	for attempt := 0; ; attempt++ {
		if attempt >= e.cfg.MaxRetries {
			e.Stats.SerialFallback.Inc()
			return e.runSerial(fn, attempt, readOnly)
		}
		done, fallback, retrySet, err := e.attemptOnce(fn, attempt, readOnly)
		if done {
			return err
		}
		if fallback {
			e.Stats.SerialFallback.Inc()
			return e.runSerial(fn, attempt+1, readOnly)
		}
		if retrySet != nil {
			// Harris retry: sleep until the read set changes, then
			// re-run. Retry waits are condition synchronization, not
			// contention — they do not advance the serial-fallback
			// counter.
			e.waitForChange(retrySet)
			attempt--
			continue
		}
		e.backoff(attempt)
	}
}

// MustAtomic is Atomic for blocks that never Cancel; it panics on error.
func (e *Engine) MustAtomic(fn func(*Tx)) {
	if err := e.Atomic(fn); err != nil {
		panic("stm: unexpected Cancel from MustAtomic block: " + err.Error())
	}
}

// AtomicRelaxed executes fn as a relaxed (irrevocable) transaction: it
// runs exactly once, serially, under the global lock, and may perform I/O
// and other un-undoable actions. This is the paper's relaxed transaction;
// its cost — total loss of concurrency while it runs — is what flattens
// dedup's scaling in Section 5.4.
func (e *Engine) AtomicRelaxed(fn func(*Tx)) error {
	e.Stats.RelaxedTxns.Inc()
	return e.runSerial(fn, 0, false)
}

// attemptOnce runs one optimistic attempt. done reports the transaction
// finished (committed or cancelled); fallback requests an immediate switch
// to serial mode (HTM syscall aborts); a non-nil retrySet means the
// attempt called Retry and the caller must sleep on those reads.
func (e *Engine) attemptOnce(fn func(*Tx), attempt int, readOnly bool) (done, fallback bool, retrySet []readEntry, err error) {
	tx := e.newTx(attempt)
	tx.readOnly = readOnly

	defer func() {
		r := recover()
		if r == nil {
			return
		}
		sig, ok := r.(abortSignal)
		if !ok {
			// A panic from user code: roll back so shared state is
			// clean, then propagate. After CommitEarly the attempt is
			// committed and published, so there is nothing to undo
			// and it is no abort.
			if tx.status != txCommitted {
				tx.rollback(causeConflict)
			}
			tx.releaseGate()
			panic(r)
		}
		if sig.cause == causeRetry {
			// Preserve the read set before rollback recycling; the
			// retry sleeper validates against it.
			retrySet = append([]readEntry(nil), tx.reads...)
		}
		tx.rollback(sig.cause)
		tx.releaseGate()
		switch sig.cause {
		case causeCancel:
			done, err = true, sig.err
		case causeSyscall:
			fallback = true
		}
		e.recycle(tx)
	}()

	// Fault hook: attempt begin. Runs under the recover above, so an
	// injected abort unwinds exactly like an organic one.
	tx.faultPanic(tx.faultAt(fault.TxBegin))

	fn(tx)

	if tx.status == txCommitted {
		// Early commit happened inside fn (condvar WAIT); everything
		// after it ran unsynchronized. Gate and handlers were dealt
		// with at the early-commit point.
		tx.releaseGate()
		e.recycle(tx)
		return true, false, nil, nil
	}
	if tx.tryCommit() {
		tx.releaseGate()
		tx.noteCommitted(obs.EvTxnCommit)
		tx.runCommitHandlers()
		tx.count(slotCommits, 1)
		e.recycle(tx)
		return true, false, nil, nil
	}
	tx.releaseGate()
	e.recycle(tx)
	return false, false, nil, nil
}

func (tx *Tx) releaseGate() {
	if tx.gateHeld {
		tx.gateHeld = false
		tx.e.leaveGate(tx.slot)
	}
}

func (tx *Tx) releaseSerial() {
	if tx.serialHeld {
		tx.serialHeld = false
		tx.e.unlockSerial()
	}
}

// slotFor is the gate slot a Tx with this id is bound to.
func (e *Engine) slotFor(id uint64) *gateSlot { return &e.slots[id%gateSlots] }

// enterGate admits an optimistic attempt on slot s: raise the slot's
// reader count, then check serialPending. While a serial transaction is
// pending or running the attempt steps back out and waits on serialRW's
// read side, which that transaction's write lock holds shut until it
// ends; Unlock lets every waiter through at once. A waiter raises its
// count again while it holds the read side: no serial transaction can
// be past its Lock then, and the next one's scan sees the count.
func (e *Engine) enterGate(s *gateSlot) {
	s.readers.Add(1)
	if !e.serialPending.Load() {
		return
	}
	e.leaveGate(s)
	e.serialRW.RLock()
	s.readers.Add(1)
	e.serialRW.RUnlock()
}

// leaveGate lowers slot s's reader count. The reader that drains a slot
// while a serial transaction is pending wakes it to rescan.
func (e *Engine) leaveGate(s *gateSlot) {
	if s.readers.Add(-1) == 0 && e.serialPending.Load() {
		e.drainMu.Lock()
		e.drainCond.Signal() // cvlint:ignore nakednotify the state it advertises is the slot's atomic reader count, not a Var
		e.drainMu.Unlock()
	}
}

// lockSerial takes the gate for a serial transaction: serialRW's write
// side orders serial transactions among themselves, serialPending turns
// new attempts away, and the scan waits out every attempt already in. An
// attempt raises its count before it loads serialPending, and lockSerial
// stores serialPending before it loads the counts; the atomics are
// sequentially consistent, so the attempt sees the flag or the scan sees
// the count. A drainer that saw the flag signals under drainMu, which
// the scan holds from its load to its Wait, so no wake-up is lost.
func (e *Engine) lockSerial() {
	e.serialRW.Lock()
	e.serialPending.Store(true)
	e.drainMu.Lock()
	for !e.drained() {
		e.drainCond.Wait()
	}
	e.drainMu.Unlock()
}

func (e *Engine) unlockSerial() {
	e.serialPending.Store(false)
	e.serialRW.Unlock()
}

// drained reports whether no optimistic attempt holds any gate slot.
func (e *Engine) drained() bool {
	for i := range e.slots {
		if e.slots[i].readers.Load() != 0 {
			return false
		}
	}
	return true
}

// CommitNanos' sampling period while no tracer is armed: one attempt in
// commitSampleEvery on average reads the clock at its start. Each gap is
// drawn from commitSampleEvery ± commitSampleJitter, so that a workload
// whose transactions repeat in a short cycle (a wait's enqueue, then a
// notify, ...) is not sampled at one position of its cycle only.
const (
	commitSampleEvery  = 64
	commitSampleJitter = 8
)

// beginClock returns an attempt's start time if the attempt is timed,
// else the zero Time: every attempt while a tracer is armed, otherwise
// the attempt at which the countdown *left has run down to zero. An
// untimed attempt reads no clock, and noteCommitted observes nothing
// for it.
func (e *Engine) beginClock(left *uint8) time.Time {
	if e.tracer.Enabled() {
		return time.Now()
	}
	if *left == 0 {
		*left = uint8(commitSampleEvery - commitSampleJitter - 1 + rand.IntN(2*commitSampleJitter+1))
		return time.Now()
	}
	*left--
	return time.Time{}
}

// runSerial executes fn irrevocably under the global lock. attempts is
// the number of optimistic attempts that preceded the fallback (0 for
// AtomicRelaxed, which never tried optimistically). readOnly carries
// AtomicRead's contract into the fallback: Write still panics.
func (e *Engine) runSerial(fn func(*Tx), attempts int, readOnly bool) error {
	e.lockSerial()
	id := e.txid.Add(1)
	tx := &Tx{
		e:          e,
		id:         id,
		slot:       e.slotFor(id),
		start:      e.clock.Load(),
		mode:       modeSerial,
		status:     txActive,
		attempt:    attempts,
		readOnly:   readOnly,
		serialHeld: true,
		began:      e.beginClock(&e.serialSample),
	}
	defer func() {
		if r := recover(); r != nil {
			// Irrevocable transactions cannot roll back; release the
			// gate and propagate. Shared state keeps whatever fn did.
			tx.releaseSerial()
			panic(r)
		}
	}()

	fn(tx)

	if tx.status == txActive {
		tx.commitSerial(obs.EvTxnSerial)
	}
	return nil
}

// commitSerial commits an irrevocable transaction, whose stores are
// already in place. If it wrote, it draws one timestamp and stamps every
// orec it wrote with it, so a retrier whose read set predates the commit
// sees those orecs move — whether it registers before (woken here) or
// after (its registration check sees the new version); like an
// optimistic commit, one that wrote nothing draws no timestamp. It then
// releases the serial gate and runs the commit handlers.
func (tx *Tx) commitSerial(ev obs.EventType) {
	e := tx.e
	if len(tx.owned) > 0 {
		wv := e.clock.Add(1)
		for i := range tx.owned {
			tx.owned[i].o.release(wv)
		}
	}
	tx.status = txCommitted
	tx.releaseSerial()
	tx.wakeWatchersForOwned()
	tx.owned = tx.owned[:0]
	tx.noteCommitted(ev)
	tx.runCommitHandlers()
	tx.count(slotCommits, 1)
	e.Stats.SerialCommits.Inc()
}

// CommitEarly commits the transaction now, in the middle of the atomic
// function — the paper's punctuation point (Algorithm 4 line 9,
// EndSyncBlock for a transactional sync context). After CommitEarly:
//
//   - all transactional effects so far are committed and visible;
//   - onCommit handlers have run;
//   - the Tx is dead: any further Read/Write/OnCommit panics;
//   - the remainder of the atomic function executes unsynchronized and
//     exactly once (Atomic will not re-run it).
//
// If validation fails, the attempt aborts and Atomic re-runs the whole
// function, which matches the paper's semantics: the first "half" of a
// punctuated transaction retries until it commits.
func (tx *Tx) CommitEarly() {
	tx.ensureActive("CommitEarly")
	if tx.mode == modeSerial {
		tx.commitSerial(obs.EvTxnEarlyCommit)
		tx.count(slotEarlyCommits, 1)
		return
	}
	if !tx.tryCommit() {
		// tryCommit rolled us back; unwind to Atomic's retry loop.
		panic(abortSignal{cause: causeConflict})
	}
	tx.releaseGate()
	tx.noteCommitted(obs.EvTxnEarlyCommit)
	tx.runCommitHandlers()
	tx.count(slotCommits, 1)
	tx.count(slotEarlyCommits, 1)
}

// backoff waits out a conflict before the next optimistic attempt: the
// first two retries just yield, which is usually enough on small
// transactions; later ones sleep a jittered backoffDelay.
func (e *Engine) backoff(attempt int) {
	d := backoffDelay(attempt)
	if d == 0 {
		runtime.Gosched()
		return
	}
	time.Sleep(jitter(d))
}

// backoffDelay is the pre-jitter delay bound for a retry: 0 (yield) on
// attempts 0 and 1, otherwise exponential in the attempt number from
// backoffBase, capped at backoffMax.
func backoffDelay(attempt int) time.Duration {
	if attempt < 2 {
		return 0
	}
	return min(backoffBase<<min(attempt, 12), backoffMax)
}

// jitter draws a sleep uniformly from [d/2, d] from math/rand/v2's
// runtime-backed per-thread source, so concurrent backoffs share no word.
func jitter(d time.Duration) time.Duration {
	half := d / 2
	return half + rand.N(half+1)
}
