package stm

// Saved checkpoints the closure-captured local *p: its current value is
// recorded, and if the transaction aborts, *p is restored before the
// atomic function re-executes.
//
// This reproduces the "ad-hoc checkpoint" of Section 4.2 of the paper. In
// C++, a mid-transaction WAIT forces the runtime to checkpoint stack
// variables that are neither shared nor transaction-local (the paper's
// `outer`), because an abort after the wait must restore them to their
// values at the punctuation point. In Go, Atomic re-runs the whole closure
// on abort, so the hazard is inverted but analogous: a local captured by
// the closure and mutated non-idempotently (e.g. `total += x`) would carry
// the aborted attempt's value into the retry. Registering it with Saved
// makes re-execution observe the pre-transaction value:
//
//	outer := f1(param)
//	e.Atomic(func(tx *stm.Tx) {
//	    stm.Saved(tx, &outer)
//	    outer = f1(outer) // safe: restored if this attempt aborts
//	    ...
//	})
//
// Saved has no effect on irrevocable (serial or one-stripe)
// transactions, which never abort.
func Saved[T any](tx *Tx, p *T) {
	tx.ensureActive("Saved")
	if tx.irrevocable() {
		return
	}
	old := *p
	tx.OnAbort(func() { *p = old })
}

// SavedSlice checkpoints the contents of a slice (not just the header):
// on abort, the elements present at registration are copied back.
func SavedSlice[T any](tx *Tx, s []T) {
	tx.ensureActive("SavedSlice")
	if tx.irrevocable() {
		return
	}
	old := make([]T, len(s))
	copy(old, s)
	tx.OnAbort(func() { copy(s, old) })
}
