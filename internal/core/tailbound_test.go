package core

import (
	"slices"
	"testing"

	"repro/internal/obs"
	"repro/internal/stm"
)

// Every walk of the wait queue stops at the tail without reading its
// link, which is stale: a node keeps the link it had when it last left
// a queue, and no enqueue clears it. These tests leave a stale link on
// the tail in each way one can arise and check that every walk (Len,
// WaitChain, the notifies, removeNode) and the next enqueue ignore it.

// queued is the queue's node ids in order, read through Len and
// WaitChain, which must agree.
func queued(t *testing.T, cv *CondVar) []uint64 {
	t.Helper()
	var ids []uint64
	for _, w := range cv.WaitChain() {
		ids = append(ids, w.Node)
	}
	if n := cv.Len(); n != len(ids) {
		t.Fatalf("Len = %d, but WaitChain lists %d waiters %v", n, len(ids), ids)
	}
	return ids
}

// expectQueue fails unless the queue holds exactly nodes, in order.
func expectQueue(t *testing.T, cv *CondVar, what string, nodes ...*Node) {
	t.Helper()
	var want []uint64
	for _, n := range nodes {
		want = append(want, n.id)
	}
	if got := queued(t, cv); !slices.Equal(got, want) {
		t.Fatalf("%s: queue holds %v, want %v", what, got, want)
	}
}

// takeWakes consumes the committed post of each node, as its parked
// owner would, and returns the nodes to the pool.
func takeWakes(t *testing.T, cv *CondVar, nodes ...*Node) {
	t.Helper()
	for _, n := range nodes {
		if _, notified := cv.park(n, obs.WakeByWaiter, 0, nil); !notified {
			t.Fatalf("node %d was not posted", n.id)
		}
	}
}

// The tail is unlinked by a loser's removeNode and by NotifyBest: its
// predecessor becomes the tail with its link still pointing at the
// unlinked node. The queue must read as the two survivors, the next
// enqueue must link behind the new tail, and NotifyAll must wake exactly
// the three queued nodes. The same holds when the tail is the only node.
func TestTailUnlinkThenEnqueue(t *testing.T) {
	score := func(tag any) int64 { return int64(tag.(int)) }
	unlinkers := map[string]func(cv *CondVar, tail *Node){
		"removeNode": func(cv *CondVar, tail *Node) {
			if !cv.removeNode(tail) {
				t.Fatal("removeNode did not find the tail")
			}
			cv.releaseNode(tail)
		},
		"NotifyBest": func(cv *CondVar, tail *Node) {
			// cvlint:ignore nakednotify the unlink of the tail itself is the subject
			if !cv.NotifyBest(nil, score) {
				t.Fatal("NotifyBest found no waiter")
			}
			takeWakes(t, cv, tail)
		},
	}
	for name, unlink := range unlinkers {
		t.Run(name, func(t *testing.T) {
			cv := New(stm.NewEngine(stm.Config{}), Options{})
			a, b, c := cv.enqueueSelf(nil, 1), cv.enqueueSelf(nil, 2), cv.enqueueSelf(nil, 3)
			unlink(cv, c)
			expectQueue(t, cv, "after unlinking the tail", a, b)
			d := cv.enqueueSelf(nil, 0)
			expectQueue(t, cv, "after the next enqueue", a, b, d)
			// cvlint:ignore nakednotify the queue itself is the subject, not a predicate
			if n := cv.NotifyAll(nil); n != 3 {
				t.Fatalf("NotifyAll woke %d, want 3", n)
			}
			takeWakes(t, cv, a, b, d)
			expectQueue(t, cv, "after NotifyAll")

			// The only node is both head and tail.
			e := cv.enqueueSelf(nil, 5)
			unlink(cv, e)
			expectQueue(t, cv, "after unlinking the only node")
			f := cv.enqueueSelf(nil, 0)
			expectQueue(t, cv, "after enqueuing into the emptied queue", f)
			// cvlint:ignore nakednotify the queue itself is the subject, not a predicate
			if !cv.NotifyOne(nil) {
				t.Fatal("NotifyOne found no waiter")
			}
			takeWakes(t, cv, f)
			expectQueue(t, cv, "after the last NotifyOne")
		})
	}
}

// A NotifyN that stops before the tail leaves the rest queued behind a
// new head, the tail untouched; one that stops exactly at the tail
// empties the queue. Enqueues after each link behind the right tail.
func TestNotifyNStopsBeforeTail(t *testing.T) {
	cv := New(stm.NewEngine(stm.Config{}), Options{})
	a, b, c, d := cv.enqueueSelf(nil, nil), cv.enqueueSelf(nil, nil), cv.enqueueSelf(nil, nil), cv.enqueueSelf(nil, nil)
	// cvlint:ignore nakednotify the queue itself is the subject, not a predicate
	if n := cv.NotifyN(nil, 2); n != 2 {
		t.Fatalf("NotifyN(2) woke %d", n)
	}
	takeWakes(t, cv, a, b)
	expectQueue(t, cv, "after NotifyN(2) of 4", c, d)
	e := cv.enqueueSelf(nil, nil)
	expectQueue(t, cv, "after the next enqueue", c, d, e)
	// cvlint:ignore nakednotify the queue itself is the subject, not a predicate
	if n := cv.NotifyN(nil, 3); n != 3 {
		t.Fatalf("NotifyN(3) of 3 woke %d", n)
	}
	takeWakes(t, cv, c, d, e)
	expectQueue(t, cv, "after NotifyN stopped at the tail")
	f := cv.enqueueSelf(nil, nil)
	expectQueue(t, cv, "after enqueuing into the drained queue", f)
	// cvlint:ignore nakednotify the queue itself is the subject, not a predicate
	if n := cv.NotifyAll(nil); n != 1 {
		t.Fatalf("NotifyAll woke %d, want 1", n)
	}
	takeWakes(t, cv, f)
}

// A transactional enqueue whose snapshot still has node x as tail, after
// x was dequeued, woken and enqueued again with y behind it, must not
// link through x: x's link is in the queue's stripe, whose orec has
// moved past the snapshot, so the write-through store to it aborts the
// attempt before it stores, and the retry links behind y. (Had the link
// an orec of its own, the store would lock it and land in place, in the
// middle of a live queue, until validation at commit rolled it back.)
func TestStaleTailEnqueueAborts(t *testing.T) {
	e := stm.NewEngine(stm.Config{})
	cv := New(e, Options{})
	x := cv.enqueueSelf(nil, nil)
	var y *Node
	n := cv.acquireNode()
	attempts, storedStale := 0, false
	e.MustAtomic(func(tx *stm.Tx) {
		attempts++
		// Algorithm 4 lines 2–8, with the recycle of the snapshot's
		// tail between the tail read and the link store.
		tail := stm.Read(tx, cv.tail)
		if attempts == 1 {
			if tail != x {
				t.Fatal("the first attempt's snapshot does not have x as tail")
			}
			// cvlint:ignore nakednotify the dequeue under a live snapshot is the subject
			if !cv.NotifyOne(nil) {
				t.Fatal("NotifyOne found no waiter")
			}
			<-x.wake
			cv.noteWake(x, obs.WakeByWaiter)
			cv.enqueue(nil, x) // x's next incarnation
			y = cv.enqueueSelf(nil, nil)
		}
		stm.Write(tx, tail.next, n)
		if attempts == 1 {
			storedStale = true
		}
		stm.Write(tx, cv.tail, n)
	})
	if storedStale {
		t.Error("the doomed attempt stored into the recycled tail's link")
	}
	if attempts != 2 {
		t.Errorf("the enqueue ran %d attempts, want 2 (the stale one aborted at its store)", attempts)
	}
	expectQueue(t, cv, "after the retried enqueue", x, y, n)
	// cvlint:ignore nakednotify the queue itself is the subject, not a predicate
	if got := cv.NotifyAll(nil); got != 3 {
		t.Fatalf("NotifyAll woke %d, want 3", got)
	}
	takeWakes(t, cv, x, y, n)
}
