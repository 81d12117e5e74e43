package stm

import (
	"sync"
	"sync/atomic"
)

// This file implements Harris-style "retry" (Harris, Marlow, Peyton Jones
// & Herlihy, PPoPP 2005) — the alternative condition-synchronization
// mechanism the paper's related work (Section 6) and conclusion (Section
// 7) discuss: a transaction that discovers its predicate does not hold
// rolls back, makes its read set visible, and sleeps until some other
// transaction commits a write to a location it had read.
//
// The paper points out that no commodity hardware TM supports retry
// (software instrumentation of the read set is required); this engine
// mirrors that: Retry on an AlgHTM engine panics with the same
// explanation, and on serial (irrevocable) transactions it panics because
// an irrevocable transaction cannot roll back. That asymmetry — condvars
// work everywhere, retry only under software TM — is exactly the paper's
// argument for transaction-friendly condition variables.

// Retry aborts the transaction and blocks the calling goroutine until
// another transaction commits a write to at least one location this
// attempt has read; the atomic function then re-executes. Use it as a
// declarative wait:
//
//	e.Atomic(func(tx *stm.Tx) {
//	    if stm.Read(tx, queueLen) == 0 {
//	        stm.Retry(tx) // sleep until someone changes what we read
//	    }
//	    ...consume...
//	})
//
// Retry panics if the attempt has an empty read set (nothing could ever
// wake it), if the engine is the simulated HTM (hardware TM cannot expose
// read sets), or inside a relaxed/serial transaction (irrevocable code
// cannot roll back).
func Retry(tx *Tx) {
	tx.ensureActive("Retry")
	switch tx.mode {
	case modeHTM:
		panic("stm: Retry is not supported on hardware TM — read-set visibility requires software instrumentation (see paper Section 6)")
	case modeSerial:
		panic("stm: Retry inside an irrevocable (serial/relaxed) transaction")
	}
	if len(tx.reads) == 0 {
		panic("stm: Retry with an empty read set would sleep forever")
	}
	panic(abortSignal{cause: causeRetry})
}

// retryWaiter is one goroutine sleeping in Retry. It parks on wake, a
// one-slot channel; fired admits exactly one send, so the send never
// blocks however many watched orecs change.
type retryWaiter struct {
	wake  chan struct{}
	fired atomic.Bool
}

// retryHub is the per-engine registry mapping orecs to sleeping retriers.
// It is quiescent (a single atomic load on the commit path) when no
// transaction is retrying.
type retryHub struct {
	mu       sync.Mutex
	watchers map[*orec][]*retryWaiter
	count    atomic.Int64
}

func (h *retryHub) init() {
	if h.watchers == nil {
		h.watchers = make(map[*orec][]*retryWaiter)
	}
}

// waitForChange sleeps until any orec in reads changes version (or is
// observed already-changed/locked during registration). The registration
// order — publish the watcher count, register, then validate, all under
// the hub lock — closes the race against a committer that bumps versions
// and only then checks the count.
func (e *Engine) waitForChange(reads []readEntry) {
	w := &retryWaiter{wake: make(chan struct{}, 1)}
	h := &e.retry
	h.mu.Lock()
	h.init()
	h.count.Add(1)
	for i := range reads {
		o := reads[i].o
		h.watchers[o] = append(h.watchers[o], w)
	}
	changed := false
	for i := range reads {
		cur := reads[i].o.load()
		if isLocked(cur) || versionOf(cur) != reads[i].ver {
			changed = true
			break
		}
	}
	h.mu.Unlock()

	if !changed {
		e.Stats.RetryWaits.Inc()
		<-w.wake
	}

	h.mu.Lock()
	for i := range reads {
		o := reads[i].o
		h.watchers[o] = removeWaiter(h.watchers[o], w)
		if len(h.watchers[o]) == 0 {
			delete(h.watchers, o)
		}
	}
	h.count.Add(-1)
	h.mu.Unlock()
}

func removeWaiter(list []*retryWaiter, w *retryWaiter) []*retryWaiter {
	for i := range list {
		if list[i] == w {
			list[i] = list[len(list)-1]
			return list[:len(list)-1]
		}
	}
	return list
}

// wakeOrec wakes every retrier watching o. Called by committers after
// releasing o with a new version; gated by the watcher count so the
// no-retry fast path costs one atomic load.
func (e *Engine) wakeOrec(o *orec) {
	h := &e.retry
	h.mu.Lock()
	for _, w := range h.watchers[o] {
		if !w.fired.Swap(true) {
			w.wake <- struct{}{}
			e.Stats.RetryWakes.Inc()
		}
	}
	h.mu.Unlock()
}

// retryWatchersActive reports whether any retrier is sleeping (commit-path
// gate).
func (e *Engine) retryWatchersActive() bool {
	return e.retry.count.Load() != 0
}

// wakeWatchersForOwned notifies retriers watching any orec this
// transaction just released. Must run after the releases; tx.owned must
// not have been truncated yet.
func (tx *Tx) wakeWatchersForOwned() {
	if !tx.e.retryWatchersActive() {
		return
	}
	for i := range tx.owned {
		tx.e.wakeOrec(tx.owned[i].o)
	}
}
