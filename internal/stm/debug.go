package stm

import "fmt"

// This file is the STM half of the runtime sanitizer (the dynamic
// counterpart of cmd/cvlint). The checks are cheap enough to leave
// compiled in — each is one atomic load when disabled — and are enabled
// either per engine with SetDebugChecks(true) or process-wide by building
// with -tags stmsan.
//
// The sanitizer turns two silent correctness violations into panics at
// the violating call site:
//
//   - a LoadDirect/StoreDirect on a Var whose ownership record is locked
//     by a live writer transaction: direct access is legal only on
//     privatized data (Section 3.3), and a locked orec is a proof the
//     data is NOT private at this instant;
//   - an onCommit handler executing more than once: handlers embody
//     at-most-once effects (the deferred SEMPOST of Algorithm 5 line 9),
//     so a second execution means a duplicated wake-up.
//
// Precision note for the direct-access check: orecs are striped, so the
// lock bit can be set by a writer of a *different* Var that hashes to the
// same record. A sanitizer panic therefore deserves investigation but is
// not always a racing access to the same cell; with the default 16Ki-orec
// table, collisions in small programs are rare.

// SetDebugChecks enables (or disables) the runtime sanitizer on this
// engine. Enable it before sharing the engine across goroutines; the
// checks themselves are safe to toggle at any time.
func (e *Engine) SetDebugChecks(on bool) { e.debug.Store(on) }

// DebugChecks reports whether the runtime sanitizer is enabled.
func (e *Engine) DebugChecks() bool { return e.debug.Load() }

// sanitizeDirect panics when a direct (non-transactional) access touches
// a cell whose orec a writer transaction currently holds.
func (b *varBase) sanitizeDirect(op string) {
	e := b.eng
	if e == nil || !e.debug.Load() {
		return
	}
	if w := b.o.load(); isLocked(w) {
		panic(fmt.Sprintf(
			"stm: sanitizer: %s on a Var whose orec is locked by transaction %d — direct access is only legal on privatized data (Section 3.3), and a live writer proves this cell is not private",
			op, ownerOf(w)))
	}
}

// wrapOnCommit guards a commit handler against double execution.
func (tx *Tx) wrapOnCommit(f func([]CommitArg)) func([]CommitArg) {
	if !tx.e.debug.Load() {
		return f
	}
	ran := false
	return func(args []CommitArg) {
		if ran {
			panic("stm: sanitizer: onCommit handler executed twice — commit handlers are at-most-once effects (a duplicated SEMPOST wakes a thread whose wake-up nobody scheduled)")
		}
		ran = true
		f(args)
	}
}
