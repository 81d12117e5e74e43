package stm

import "sync/atomic"

// box wraps a value so that atomic.Value always stores one concrete type
// per Var, even when T is an interface or when the value is T's zero value
// (atomic.Value rejects nil interfaces).
type box[T any] struct{ v T }

// varBase is the type-erased part of a Var: the published value and the
// ownership record it hashes to. Transaction logs hold *varBase, so the
// engine core is free of type parameters.
type varBase struct {
	val atomic.Value // always holds box[T] for the owning Var's T
	o   *orec
	eng *Engine // for the runtime sanitizer (debug.go) and Stripe

	// meta is the Var's abort-attribution row (profile.go); nil until the
	// Var is named. Read/Write fast paths never touch it — only naming
	// and rollback do.
	meta atomic.Pointer[varMeta]
}

// Var is a transactional memory cell holding a value of type T. Create
// Vars with NewVar; the zero value is not usable.
//
// Inside a transaction, access a Var with Read and Write. Outside any
// transaction — during single-threaded initialization, or on data that has
// been privatized (Section 3.3 of the paper: a condvar queue node removed
// from the queue is owned by exactly one goroutine) — use LoadDirect and
// StoreDirect.
type Var[T any] struct {
	base varBase
}

// NewVar allocates a transactional cell bound to engine e, holding init.
func NewVar[T any](e *Engine, init T) *Var[T] {
	v := &Var[T]{}
	v.base.o = &e.orecs[orecIndex(e.varSeq.Add(1), e.orecMask)]
	v.base.eng = e
	v.base.val.Store(box[T]{init})
	return v
}

// NewVarNamed is NewVar with an attribution name: the conflict table
// gives the Var its own abort row under name instead of folding its
// aborts into "(unattributed)".
func NewVarNamed[T any](e *Engine, name string, init T) *Var[T] {
	v := NewVar(e, init)
	v.base.setName(name)
	return v
}

// NewVarInStripe is NewVar for a cell that shares peer's orec: the two
// Vars are one stripe, as adjacent words are in libitm's ml_wt, which maps
// memory to orecs in 32-byte stripes. A transaction that writes both
// locks, releases and stamps one orec; a writer of either conflicts with
// a reader of either, exactly as when two Vars hash to one orec. The new
// Var belongs to peer's engine.
func NewVarInStripe[T any](peer *Var[T], init T) *Var[T] {
	v := NewVar(peer.base.eng, init)
	v.base.o = peer.base.o
	return v
}

// SetName sets (or replaces) the Var's attribution name after creation,
// returning v for chaining. Safe to call at any time.
func (v *Var[T]) SetName(name string) *Var[T] {
	v.base.setName(name)
	return v
}

// Name returns the Var's attribution name, or "" if it was never named.
func (v *Var[T]) Name() string {
	if m := v.base.meta.Load(); m != nil {
		return *m.name.Load()
	}
	return ""
}

// LoadDirect reads the cell without transactional instrumentation. Only
// correct when no concurrent transaction may be writing the cell (e.g.
// privatized data, or quiescent points such as test assertions after all
// workers joined).
func (v *Var[T]) LoadDirect() T {
	v.base.sanitizeDirect("LoadDirect")
	return v.base.val.Load().(box[T]).v
}

// StoreDirect writes the cell without transactional instrumentation. See
// LoadDirect for when this is legal. This reproduces the unsynchronized
// store on line 1 of the paper's WAIT (Algorithm 4): the node is private
// to its owner at that point.
func (v *Var[T]) StoreDirect(x T) {
	v.base.sanitizeDirect("StoreDirect")
	v.base.val.Store(box[T]{x})
}

// Peek is a read-only transaction of one read, run without a Tx: it
// returns v's committed value and ok=true, or ok=false when it cannot
// tell one from a concurrent transaction's intermediate state (v's orec
// locked or re-versioned around the load, or a serial transaction
// pending). The caller then runs a real transaction. One consistent
// read is linearizable on its own; it takes no gate slot, logs nothing
// and draws no fault, and it never makes another transaction abort
// (DESIGN.md §6.1).
//
// serialPending is loaded between the value and the orec reload because
// a serial transaction writes in place without locking: its commit
// stamps every orec it wrote before it clears the flag, so a Peek that
// loaded any of its stores sees the flag set or the orec moved.
func Peek[T any](v *Var[T]) (x T, ok bool) {
	b := &v.base
	w1 := b.o.load()
	if isLocked(w1) {
		return x, false
	}
	val := b.val.Load()
	if b.eng.serialPending.Load() {
		return x, false
	}
	if b.o.load() != w1 {
		return x, false
	}
	return val.(box[T]).v, true
}

// Read returns the value of v inside transaction tx, recording the read
// for validation. It aborts (by panicking with an internal signal caught
// by Atomic) if a conflict is detected.
func Read[T any](tx *Tx, v *Var[T]) T {
	tx.ensureActive("Read")
	b := &v.base
	switch tx.mode {
	case modeWriteThrough:
		if tx.ownsOrec(b.o) {
			// We hold the lock; the published value is our own
			// write (or a stable pre-image nobody else can touch).
			return b.val.Load().(box[T]).v
		}
		return tx.readShared(b).(box[T]).v
	case modeStripe:
		tx.inStripe(b, "Read")
		return b.val.Load().(box[T]).v
	case modeSerial:
		return b.val.Load().(box[T]).v
	default: // modeHTM
		if cur, ok := tx.findWrite(b); ok {
			return cur.(box[T]).v
		}
		return tx.readShared(b).(box[T]).v
	}
}

// Write sets the value of v inside transaction tx. It panics inside a
// read-only (AtomicRead) transaction.
func Write[T any](tx *Tx, v *Var[T], x T) {
	tx.ensureActive("Write")
	if tx.readOnly {
		panic("stm: Write inside a read-only (AtomicRead) transaction")
	}
	b := &v.base
	switch tx.mode {
	case modeWriteThrough:
		tx.writeThrough(b, box[T]{x})
	case modeStripe:
		// The stripe's orec is held: store in place.
		tx.inStripe(b, "Write")
		b.val.Store(box[T]{x})
		tx.wrote = true
	case modeSerial:
		b.val.Store(box[T]{x})
		// No lock needed: the serial gate excludes every other
		// transaction. commitSerial stamps the orec and wakes its
		// retry watchers.
		if !tx.ownsOrec(b.o) {
			tx.owned = append(tx.owned, ownedEntry{o: b.o})
		}
	default: // modeHTM
		tx.bufferWrite(b, box[T]{x})
	}
}

// Modify applies f to the current value of v and stores the result, all
// within tx. It is sugar for a Read followed by a Write.
func Modify[T any](tx *Tx, v *Var[T], f func(T) T) {
	Write(tx, v, f(Read(tx, v)))
}
