// Package birrellcv implements condition variables from a constant number
// of per-condvar semaphores, following Andrew Birrell's classic
// construction ("Implementing Condition Variables with Semaphores",
// Computer Systems, 2004) — the closest ancestor of the paper's design
// and the subject of its Section 6 related-work discussion.
//
// Birrell built condvars for Win32 from ONE semaphore per condition
// variable plus a waiter count, and documented how many corner cases that
// invites (the paper: "many corner cases arose, which ultimately led to
// the creation of first-class condition variables in later versions of
// Win32"). The variant implemented here is the corrected construction: a
// counting semaphore, a waiter counter guarded by an internal lock, and a
// hand-shake semaphore so Broadcast can wait for its wake-ups to land
// before returning (the fix for the "new waiter steals an old broadcast's
// post" corner case).
//
// The paper's key observation about this lineage: Birrell predates cheap
// per-thread state, so he multiplexes ONE semaphore among all waiters of
// a condvar — which is exactly what forces the corner cases (a post
// intended for an old waiter can be claimed by a newly arrived one). The
// transaction-friendly condvar in internal/core gives each waiting thread
// its OWN semaphore node in a queue, dissolving the whole problem class —
// and gaining FIFO order, NotifyBest, and transaction compatibility along
// the way. This package exists so tests and benchmarks can show the
// contrast concretely.
//
// Semantics: Mesa-style, no self-generated spurious wake-ups, but no
// ordering guarantee: a barging waiter that enqueues between a Signal's
// post and the intended sleeper's wake-up may claim the permit.
package birrellcv

import (
	"sync"

	"repro/internal/sem"
	"repro/internal/syncx"
)

// Cond is a Birrell-style condition variable. The zero value is ready to
// use.
type Cond struct {
	x       sync.Mutex // internal lock guarding the counters
	waiters int        // threads registered and not yet granted a wake
	bcast   int        // broadcast wake-ups that still owe a hand-shake
	s       sem.Sem    // the single shared wait semaphore
	h       sem.Sem    // hand-shake semaphore for Broadcast
}

// New returns an empty condition variable.
func New() *Cond { return &Cond{} }

// Wait atomically releases m and blocks until a Signal or Broadcast
// permit reaches this thread, then re-acquires m.
func (c *Cond) Wait(m *syncx.Mutex) {
	c.x.Lock()
	c.waiters++
	c.x.Unlock()

	m.Unlock()
	c.s.Wait()

	// If a Broadcast is draining, acknowledge one of its wake-ups. (A
	// Signal-woken thread may acknowledge in its place; only the total
	// count matters, which is Birrell's counting argument.)
	c.x.Lock()
	if c.bcast > 0 {
		c.bcast--
		c.x.Unlock()
		c.h.Post()
	} else {
		c.x.Unlock()
	}

	m.Lock()
}

// Signal wakes one waiting thread, if any.
func (c *Cond) Signal() {
	c.x.Lock()
	post := c.waiters > 0
	if post {
		c.waiters--
	}
	c.x.Unlock()
	if post {
		c.s.Post()
	}
}

// Broadcast wakes every currently waiting thread and blocks until as many
// wake-ups have been consumed, so none of its permits can be stolen by
// waiters that arrive later.
func (c *Cond) Broadcast() {
	c.x.Lock()
	n := c.waiters
	c.waiters = 0
	c.bcast += n
	c.x.Unlock()
	if n == 0 {
		return
	}
	for i := 0; i < n; i++ {
		c.s.Post()
	}
	for i := 0; i < n; i++ {
		c.h.Wait()
	}
}

// Waiters reports the number of threads currently registered as waiting
// (racy; for tests).
func (c *Cond) Waiters() int {
	c.x.Lock()
	defer c.x.Unlock()
	return c.waiters
}
