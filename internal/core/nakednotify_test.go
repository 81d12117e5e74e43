package core

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stm"
	"repro/internal/syncx"
)

// A naked notify on an empty queue is one consistent read of head
// (stm.Peek), not a transaction: NotifyOne, NotifyAll, NotifyN and
// NotifyBest commit nothing and allocate nothing. verify.sh runs this in
// its overhead-guard step.
func TestNakedNotifyEmptyNoAlloc(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	score := func(any) int64 { return 0 }
	notifies := map[string]func(){
		"NotifyOne": func() {
			// cvlint:ignore nakednotify the empty-queue notify itself is the subject
			if cv.NotifyOne(nil) {
				t.Fatal("NotifyOne on an empty queue reported a waiter")
			}
		},
		"NotifyAll": func() {
			// cvlint:ignore nakednotify the empty-queue notify itself is the subject
			if n := cv.NotifyAll(nil); n != 0 {
				t.Fatalf("NotifyAll on an empty queue woke %d", n)
			}
		},
		"NotifyN": func() {
			// cvlint:ignore nakednotify the empty-queue notify itself is the subject
			if n := cv.NotifyN(nil, 4); n != 0 {
				t.Fatalf("NotifyN on an empty queue woke %d", n)
			}
		},
		"NotifyBest": func() {
			// cvlint:ignore nakednotify the empty-queue notify itself is the subject
			if cv.NotifyBest(nil, score) {
				t.Fatal("NotifyBest on an empty queue reported a waiter")
			}
		},
	}
	for name, notify := range notifies {
		t.Run(name, func(t *testing.T) {
			commits := e.Stats.Commits.Load()
			a := testing.AllocsPerRun(1000, notify)
			if d := e.Stats.Commits.Load() - commits; d != 0 {
				t.Errorf("%s on an empty queue committed %d transactions, want 0", name, d)
			}
			if a != 0 && !raceEnabled {
				t.Errorf("%s on an empty queue allocates %.1f times per op", name, a)
			}
		})
	}
	// A transactional caller still reads head inside its own
	// transaction, which commits as usual.
	commits := e.Stats.Commits.Load()
	e.MustAtomic(func(tx *stm.Tx) {
		// cvlint:ignore nakednotify the empty-queue notify itself is the subject
		if cv.NotifyOne(tx) {
			t.Fatal("transactional NotifyOne on an empty queue reported a waiter")
		}
	})
	if d := e.Stats.Commits.Load() - commits; d != 1 {
		t.Errorf("transactional empty notify: %d commits, want the caller's 1", d)
	}
}

// Naked NotifyOne loops race waiters that enqueue through WaitLocked,
// WaitTx in an optimistic transaction and WaitTx in an AtomicRelaxed
// (serial) one, whose in-place writes lock no orec: every wait returns,
// and every committed post is consumed by exactly one wait. An empty
// read taken while an enqueue is in flight must fall back to the
// transaction, or a waiter is stranded and the test hangs. The
// sanitizer is on: a doomed enqueuer whose snapshot still has a
// recycled node as tail must abort before it can lock that node's link
// (the link is in the queue's stripe), and a node linked twice or
// released while linked panics.
func TestNakedNotifyRacesWaiters(t *testing.T) {
	for _, alg := range []stm.Algorithm{stm.AlgWriteThrough, stm.AlgHTM} {
		t.Run(alg.String(), func(t *testing.T) {
			e := stm.NewEngine(stm.Config{Algorithm: alg})
			e.SetDebugChecks(true)
			cv := New(e, Options{})
			st := &CVStats{}
			cv.SetStats(st)
			var m syncx.Mutex

			const rounds = 200
			waits := []func(){
				func() {
					m.Lock()
					// cvlint:ignore waitloop every wait is one-shot: a notifier loops until all returned
					cv.WaitLocked(&m)
					m.Unlock()
				},
				func() {
					// cvlint:ignore waitloop every wait is one-shot: a notifier loops until all returned
					e.MustAtomic(func(tx *stm.Tx) { cv.WaitTx(tx) })
				},
				func() {
					// cvlint:ignore waitloop every wait is one-shot: a notifier loops until all returned
					_ = e.AtomicRelaxed(func(tx *stm.Tx) { cv.WaitTx(tx) })
				},
			}
			var remaining atomic.Int64
			remaining.Store(int64(2 * len(waits) * rounds))
			var waiters, notifiers sync.WaitGroup
			for _, wait := range waits {
				for range 2 {
					waiters.Add(1)
					go func() {
						defer waiters.Done()
						for range rounds {
							wait()
							remaining.Add(-1)
						}
					}()
				}
			}
			for range 2 {
				notifiers.Add(1)
				go func() {
					defer notifiers.Done()
					for remaining.Load() > 0 {
						// cvlint:ignore nakednotify the race between naked notifies and enqueues is the subject
						cv.NotifyOne(nil)
						runtime.Gosched()
					}
				}()
			}
			waiters.Wait()
			notifiers.Wait()

			want := int64(2 * len(waits) * rounds)
			if w := st.Waits.Load(); w != want {
				t.Errorf("waits = %d, want %d", w, want)
			}
			if p := st.Sem.Posts.Load(); p != st.Waits.Load() {
				t.Errorf("sem posts = %d, waits = %d: a post went unconsumed or was doubled", p, st.Waits.Load())
			}
			if n := cv.Len(); n != 0 {
				t.Errorf("%d waiters left queued", n)
			}
		})
	}
}
