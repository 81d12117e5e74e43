package core

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/stm"
	"repro/internal/syncx"
)

func expectSanitizerPanic(t *testing.T, substr string) {
	t.Helper()
	r := recover()
	if r == nil {
		t.Fatalf("expected a sanitizer panic containing %q, got none", substr)
	}
	if msg := fmt.Sprint(r); !strings.Contains(msg, substr) {
		t.Fatalf("panic %q does not contain %q", msg, substr)
	}
}

func debugCV(t *testing.T, opts Options) (*stm.Engine, *CondVar) {
	t.Helper()
	e := stm.NewEngine(stm.Config{})
	e.SetDebugChecks(true)
	return e, New(e, opts)
}

// Enqueuing a node the queue still references would link it twice;
// unlinking either incarnation then corrupts the list.
func TestSanitizerDoubleEnqueue(t *testing.T) {
	_, cv := debugCV(t, Options{})
	n := cv.acquireNode()
	cv.enqueue(nil, n)
	defer expectSanitizerPanic(t, "enqueued while still linked")
	cv.enqueue(nil, n)
}

// Returning a still-queued node to the pool leaves a dangling queue entry
// and hands the next waiter a node a notifier may still target.
func TestSanitizerReleaseWhileQueued(t *testing.T) {
	_, cv := debugCV(t, Options{})
	n := cv.acquireNode()
	cv.enqueue(nil, n)
	defer expectSanitizerPanic(t, "released while still linked")
	cv.releaseNode(n)
}

// The generation guard: a notification whose commit handler fires against
// a node that was recycled in the meantime would wake the wrong waiter.
// The recycle is simulated by bumping the generation between the dequeue
// and the commit of the notifying transaction.
func TestSanitizerNotifyAgainstRecycledNode(t *testing.T) {
	e, cv := debugCV(t, Options{})
	n := cv.acquireNode()
	cv.enqueue(nil, n)
	defer expectSanitizerPanic(t, "recycled condvar node")
	e.MustAtomic(func(tx *stm.Tx) {
		// cvlint:ignore nakednotify the dequeue of a recycled node is the subject, not a predicate
		cv.NotifyOne(tx) // dequeues n, captures its generation
		n.gen.Add(1)     // node reclaimed and reissued mid-flight
	})
}

// Every legal condvar path must stay silent with the sanitizer on:
// lock-based and transactional waits, pool reuse across many rounds, and
// both outcomes of a timed wait.
func TestSanitizerSilentOnLegalCondvarPaths(t *testing.T) {
	e, cv := debugCV(t, Options{})
	var m syncx.Mutex

	for i := 0; i < 50; i++ {
		done := make(chan struct{})
		go func() {
			m.Lock()
			cv.WaitLocked(&m)
			m.Unlock()
			close(done)
		}()
		for cv.Len() == 0 {
			runtime.Gosched()
		}
		e.MustAtomic(func(tx *stm.Tx) { cv.NotifyOne(tx) })
		<-done
	}

	// Transactional wait, naked notify.
	done := make(chan struct{})
	go func() {
		e.MustAtomic(func(tx *stm.Tx) { cv.WaitTx(tx) })
		close(done)
	}()
	for cv.Len() == 0 {
		runtime.Gosched()
	}
	cv.NotifyAll(nil)
	<-done

	// Timed wait: the timeout path exercises removeNode's unlink.
	m.Lock()
	if cv.WaitLockedTimeout(&m, 2*time.Millisecond) {
		t.Fatal("timed wait with no notifier reported success")
	}
	m.Unlock()

	// Timed wait again on the (reused) node, this time notified.
	won := make(chan bool, 1)
	go func() {
		m.Lock()
		ok := cv.WaitLockedTimeout(&m, time.Second)
		m.Unlock()
		won <- ok
	}()
	for cv.Len() == 0 {
		runtime.Gosched()
	}
	e.MustAtomic(func(tx *stm.Tx) { cv.NotifyOne(tx) })
	if !<-won {
		t.Fatal("notified timed wait reported timeout")
	}

	if got := cv.Len(); got != 0 {
		t.Fatalf("queue length = %d after all waits completed, want 0", got)
	}
}
