// Package stm is a word-based software transactional memory for Go, built
// as the substrate for the transaction-friendly condition variables of
// Wang, Liu and Spear (SPAA 2014). It runs two algorithms, one for each
// TM system the paper evaluates on:
//
//   - GCC 4.9's libitm "ml_wt" algorithm (multi-lock, write-through):
//     reproduced by AlgWriteThrough — encounter-time orec locking with an
//     undo log.
//   - Intel Haswell RTM hardware TM: reproduced by AlgHTM — a best-effort
//     engine with a bounded access capacity, immediate aborts on conflict,
//     aborts on (simulated) system calls, and a global-lock serial
//     fallback, which is how real lock-elision runtimes behave.
//
// AlgWriteThrough keeps an undo log and AlgHTM a redo log (its buffered
// writes are published at commit), so the tests exercise both sides of
// Section 4.2's discussion of how WAIT's early commit interacts with redo-
// and undo-logging runtimes.
//
// Both run on TL2's global version clock. A commit that wrote draws one
// stamp from it after locking its write set; a commit that wrote nothing
// commits at its snapshot — no lock, no stamp, no revalidation — because
// every read was checked against the snapshot when it was made.
//
// # Programming model
//
// Transactional data lives in typed cells:
//
//	e := stm.NewEngine(stm.Config{})
//	v := stm.NewVar(e, 0)
//	err := e.Atomic(func(tx *stm.Tx) {
//	    n := stm.Read(tx, v)
//	    stm.Write(tx, v, n+1)
//	})
//
// Atomic retries the function until it commits; after Config.MaxRetries
// consecutive aborts it falls back to serial-irrevocable execution under a
// global lock (the standard HTM lock-elision discipline, also a fine
// contention manager for STM). AtomicRelaxed runs the function serially
// and irrevocably from the start — the paper's "relaxed transaction" used
// for I/O, which is what makes dedup stop scaling in its evaluation.
//
// That global lock is the serial gate, a distributed reader indicator in
// the style of libitm's gtm_rwlock: an optimistic attempt raises the
// reader count of its pooled Tx's own cache-line slot and checks a
// serialPending flag; a serial transaction sets the flag and waits for
// every slot to drain. The commit counters live on the same slots, and
// the commit-latency histogram is sampled (about one attempt in 64, or every
// attempt while a tracer is armed), so a disarmed optimistic attempt
// writes no cache line shared by the whole engine beyond the orecs and
// the clock of the data it writes.
//
// Nesting is flat (Section 4.3 of the paper): tx.Atomic runs a nested
// block inside the same transaction.
//
// # Features the condition variable needs
//
//   - Tx.OnCommitCall registers a handler to run after the outermost
//     commit, called with the arguments PushCommitArg logged for it; the
//     condvar defers SEMPOST to commit time this way, so a wake-up is
//     never caused by a transaction that ultimately aborts and never
//     executed inside a hardware transaction (Algorithm 5, line 9). It
//     is the one handler form: Tx.OnCommit(f) registers a handler whose
//     one argument is f.
//   - Tx.CommitEarly commits the running transaction in the middle of the
//     atomic function ("punctuation"): WAIT uses it to complete the
//     enclosing sync block before sleeping (Algorithm 4, line 9). After an
//     early commit the remaining code in the atomic function runs
//     unsynchronized and must not touch the Tx.
//   - Peek is a one-read transaction without a Tx: it returns one Var's
//     committed value, or reports that a concurrent writer or a pending
//     serial transaction kept it from telling. A naked notify uses it
//     to return from an empty queue without running a transaction.
//   - Engine.AtomicStripe runs a transaction whose every access falls
//     in one stripe (Vars made with NewVarInStripe share one orec): it
//     locks that orec before the body runs, so it needs no read log,
//     validation, undo log or retry, and cannot abort. The condvar runs
//     a naked or lock-based queue operation this way; its head, tail
//     and node links are one stripe.
//   - Saved reproduces Section 4.2's ad-hoc stack checkpointing: it
//     snapshots a closure-captured local at registration and restores it if
//     the transaction aborts, so re-execution sees the pre-transaction
//     value.
//
// # Memory model
//
// Var values are published through atomic.Value, so the package is clean
// under the Go race detector; consistency of transactional reads is
// enforced by per-location ownership records (orecs) with a global version
// clock, not by the atomicity of the value load itself. Orecs are striped:
// several Vars may hash to one orec, which models the false-conflict
// behaviour of address-hashed orec tables in real STMs (Config.OrecCount
// controls the table size). NewVarInStripe places a Var on another's orec
// on purpose, as adjacent words share one in libitm's ml_wt: a commit
// that writes both then locks one orec.
package stm
