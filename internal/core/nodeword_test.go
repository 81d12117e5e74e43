package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/stm"
)

// cv.head, cv.tail and every node's next link are one stripe: while a
// transaction holds the orec it locked by writing tail, a consistent
// read of head or of a link cannot be taken, and the queue's stripe is
// every one of their stripes. The NotifyBest tag keeps an orec of its
// own. TestWaitCycleLocksOneOrecPerTransaction counts the locks.
func TestHeadTailOneStripe(t *testing.T) {
	e := stm.NewEngine(stm.Config{OrecCount: 1 << 16})
	cv := New(e, Options{})
	n := cv.acquireNode()
	e.MustAtomic(func(tx *stm.Tx) {
		stm.Write(tx, cv.tail, nil) // write-through: locks tail's orec now
		if _, ok := stm.Peek(cv.head); ok {
			t.Error("Peek read head while tail's orec was locked: head and tail are on two orecs")
		}
		if _, ok := stm.Peek(n.next); ok {
			t.Error("Peek read a node's link while tail's orec was locked: the link has an orec of its own")
		}
		if _, ok := stm.Peek(n.tag); !ok {
			t.Error("Peek could not read a node's tag while tail's orec was locked: the tag shares the queue's orec")
		}
	})
	for name, st := range map[string]stm.Stripe{"head": cv.head.Stripe(), "tail": cv.tail.Stripe(), "link": n.next.Stripe()} {
		if st != cv.stripe {
			t.Errorf("the queue's %s is not on the queue's stripe", name)
		}
	}
	if _, ok := stm.Peek(cv.head); !ok {
		t.Fatal("Peek could not read head on a quiescent engine")
	}
	cv.enqueue(nil, n) // into an empty queue: writes head and tail
	if !cv.removeNode(n) {
		t.Fatal("removeNode did not find the enqueued node")
	}
	cv.releaseNode(n)
}

// waitCycleOn runs one whole wait cycle on node n without the pool:
// enqueue, a naked NotifyOne, the park that takes its post, release.
func waitCycleOn(t *testing.T, cv *CondVar, n *Node) {
	t.Helper()
	cv.enqueue(nil, n)
	// cvlint:ignore nakednotify the cycle has no predicate: the wait machinery itself is the subject
	if !cv.NotifyOne(nil) {
		t.Fatal("NotifyOne found no waiter")
	}
	if _, notified := cv.park(n, obs.WakeByWaiter, 0, nil); !notified {
		t.Fatal("park did not take the post")
	}
}

// The sanitizer's node words are written only while debug checks are
// on: with them off a wait cycle never sets inQueue and never advances
// gen, and the stamps and wake words stay zero with no reader attached.
// With checks on, inQueue is set while the node is queued and gen
// advances once per release. verify.sh runs this in its overhead-guard
// step.
func TestDisarmedNodeWords(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	e.SetDebugChecks(false)
	e.SetTracer(obs.NewTracer(1024))
	cv := New(e, Options{})
	n := cv.acquireNode()
	gen := n.gen.Load()
	for i := 0; i < 100; i++ {
		cv.enqueue(nil, n)
		if n.inQueue.Load() {
			t.Fatal("checks off: enqueue set inQueue")
		}
		// cvlint:ignore nakednotify the cycle has no predicate: the wait machinery itself is the subject
		if !cv.NotifyOne(nil) {
			t.Fatal("NotifyOne found no waiter")
		}
		if n.wakeID.Load() != 0 || n.batch.Load() != nil {
			t.Fatal("checks off, disarmed: the committed notify stamped the node")
		}
		if _, notified := cv.park(n, obs.WakeByWaiter, 0, nil); !notified {
			t.Fatal("park did not take the post")
		}
		if n.enqueuedNS.Load() != 0 || n.notifiedNS.Load() != 0 || n.parkedNS.Load() != 0 {
			t.Fatal("no stamp reader attached, yet the cycle stamped the node")
		}
	}
	if got := n.gen.Load(); got != gen {
		t.Errorf("checks off: 100 releases advanced gen by %d, want 0", got-gen)
	}

	e.SetDebugChecks(true)
	for i := 0; i < 100; i++ {
		cv.enqueue(nil, n)
		if !n.inQueue.Load() {
			t.Fatal("checks on: enqueue left inQueue clear")
		}
		// cvlint:ignore nakednotify the cycle has no predicate: the wait machinery itself is the subject
		if !cv.NotifyOne(nil) {
			t.Fatal("NotifyOne found no waiter")
		}
		if n.inQueue.Load() {
			t.Fatal("checks on: the committed notify left inQueue set")
		}
		cv.park(n, obs.WakeByWaiter, 0, nil)
	}
	if got := n.gen.Load() - gen; got != 100 {
		t.Errorf("checks on: 100 releases advanced gen by %d, want 100", got)
	}
}

// Debug checks switched off while a node is queued, and on again before
// it is reused: the dequeue clears the inQueue flag the checked enqueue
// set, though checks are off by then, so the next checked enqueue of the
// same node raises no false "still linked" panic. Both dequeue paths
// are covered: a notifier's commit and a loser's unlink.
func TestSanitizerToggleMidWait(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	n := cv.acquireNode()
	dequeues := map[string]func(){
		"notify": func() {
			// cvlint:ignore nakednotify the cycle has no predicate: the wait machinery itself is the subject
			if !cv.NotifyOne(nil) {
				t.Fatal("NotifyOne found no waiter")
			}
			<-n.wake
			cv.noteWake(n, obs.WakeByWaiter)
		},
		"unlink": func() {
			if !cv.removeNode(n) {
				t.Fatal("removeNode did not find the enqueued node")
			}
		},
	}
	for _, name := range []string{"notify", "unlink"} {
		t.Run(name, func(t *testing.T) {
			e.SetDebugChecks(true)
			cv.enqueue(nil, n)
			e.SetDebugChecks(false)
			dequeues[name]()
			cv.releaseNode(n)
			e.SetDebugChecks(true)
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("checked re-enqueue of a node dequeued while checks were off panicked: %v", r)
				}
			}()
			waitCycleOn(t, cv, n)
		})
	}
}

// Each transaction of a single-waiter cycle locks one orec: the enqueue
// into an empty queue writes head and tail, one stripe, and the dequeue
// of the last waiter writes head and tail. On the write-through engine
// both are one-stripe transactions, which take that orec before they
// start; on the simulated HTM they lock it at commit. An armed injector
// with no rule counts every orec acquisition (the OrecAcquire hook) and
// fires none.
func TestWaitCycleLocksOneOrecPerTransaction(t *testing.T) {
	for _, alg := range []stm.Algorithm{stm.AlgWriteThrough, stm.AlgHTM} {
		t.Run(alg.String(), func(t *testing.T) {
			e := stm.NewEngine(stm.Config{Algorithm: alg, OrecCount: 1 << 16})
			cv := New(e, Options{})
			n := cv.acquireNode()
			in := fault.New(1)
			in.Arm()
			e.SetFault(in)
			const cycles = 10
			for i := 0; i < cycles; i++ {
				waitCycleOn(t, cv, n)
			}
			if got := in.Drawn(fault.OrecAcquire); got != 2*cycles {
				t.Errorf("%d wait cycles acquired %d orecs, want %d (one per transaction)", cycles, got, 2*cycles)
			}
		})
	}
}
