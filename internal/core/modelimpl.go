package core

import "fmt"

// This file model-checks the PRACTICAL algorithm (Algorithms 3–6: the
// transactional queue of semaphores with commit-deferred SEMPOST, plus
// the timeout/cancel loser path of CondVar.park), the companion to
// model.go's checker for the abstract Algorithm 2. The model captures
// exactly the atomicity the implementation provides:
//
//   - a waiter's enqueue is one atomic step (its queue transaction);
//   - SEMWAIT is a blocking step enabled when the waiter's semaphore is
//     positive;
//   - a timed waiter may instead give up: one atomic step (the unlink
//     transaction, serialized against every notifier's dequeue) that
//     either removes it from the queue — the wait ends un-notified — or
//     finds it already dequeued, in which case it must consume the
//     pending post (a second, blocking SEMWAIT) before finishing;
//   - a notifier's dequeue is one atomic step (its transaction), and the
//     SEMPOST is a SEPARATE later step (the onCommit handler), modelling
//     the window between dequeue and wake-up;
//   - a transactional notifier may also abort after its dequeue step —
//     modelled as the dequeue step simply not happening (STM gives
//     all-or-nothing, so an aborted NotifyOne is a no-op; the model's
//     notifiers may instead finish without notifying via a "skip" step).
//
// Checked in every reachable state / terminal state:
//
//   - a semaphore never exceeds 1 (each node receives at most one post —
//     the "exactly one notify per wake" half of Definition 1);
//   - a waiter completes only after a post to its own node (no spurious
//     wake-ups, the other half) or, timed, after unlinking itself;
//   - no permit is left in a finished waiter's semaphore (a loser that
//     abandoned its raced post would hand it to the node's next owner);
//   - terminal no-lost-wake-ups: every waiter not woken is still in the
//     queue and unposted (it was simply never notified), and no loser
//     is stuck waiting for a post that never comes.
const (
	implMaxThreads = 6
)

// implState is one global state: queue content (ordered waiter ids),
// per-waiter semaphore values, per-thread PCs, and per-notifier locals.
type implState struct {
	queue [implMaxThreads]int8 // FIFO queue of waiter indexes; -1 = empty slot
	qlen  int8
	sem   uint8 // bit i set = waiter i's semaphore holds a permit

	pc [implMaxThreads]uint8

	victim [implMaxThreads]int8 // notifier's dequeued waiter (-1 none)
}

// Waiter PCs.
const (
	iwEnqueue = 0 // about to run the enqueue transaction
	iwSleep   = 1 // in SEMWAIT
	iwDone    = 2
	iwLoser   = 3 // timed waiter gave up after a notifier dequeued it: consuming the raced post
)

// NotifyOne PCs.
const (
	inDequeue = 0 // about to run the dequeue transaction (or give up)
	inPost    = 1 // dequeued; about to run the commit handler (SEMPOST)
	inDone    = 2
)

// ImplRole selects a model thread's program.
type ImplRole int

const (
	// ImplWaiter enqueues then sleeps (Algorithm 4 without continuation).
	ImplWaiter ImplRole = iota
	// ImplNotifyOne dequeues one waiter and posts its semaphore at commit
	// (Algorithm 5); it may also do nothing (empty queue or its
	// transaction never ran).
	ImplNotifyOne
	// ImplNotifyAll dequeues the whole queue and posts each semaphore
	// (Algorithm 6); posts happen one step at a time after the dequeue.
	ImplNotifyAll
	// ImplTimedWaiter is a waiter that may give up while asleep
	// (WaitLockedTimeout / WaitLockedCtx / WaitCtx): the loser path.
	ImplTimedWaiter
)

// waits reports whether the role enqueues itself (either waiter kind).
func (r ImplRole) waits() bool { return r == ImplWaiter || r == ImplTimedWaiter }

func (r ImplRole) String() string {
	switch r {
	case ImplWaiter:
		return "waiter"
	case ImplNotifyOne:
		return "notifyOne"
	case ImplNotifyAll:
		return "notifyAll"
	default:
		return "timedWaiter"
	}
}

// NotifyAll reuses victim as a bitmask of pending posts.

// CheckImplModel exhaustively explores every interleaving of the given
// role mix over Algorithms 3–6 and verifies the wake-up pairing
// invariants. It returns exploration statistics or the first violation.
func CheckImplModel(roles []ImplRole) (ModelResult, error) {
	if len(roles) > implMaxThreads {
		return ModelResult{}, fmt.Errorf("core: impl model supports at most %d threads", implMaxThreads)
	}
	var init implState
	for i := range init.queue {
		init.queue[i] = -1
	}
	for i := range init.victim {
		init.victim[i] = -1
	}

	return explore(init,
		func(s implState) error { return checkImplInvariants(roles, s) },
		func(s implState) ([]implState, error) { return implSuccessors(roles, s), nil },
		func(s implState) error { return checkImplTerminal(roles, s) })
}

// unlink removes queue slot k, closing the gap.
func (s *implState) unlink(k int8) {
	copy(s.queue[k:], s.queue[k+1:s.qlen])
	s.queue[s.qlen-1] = -1
	s.qlen--
}

func implSuccessors(roles []ImplRole, s implState) []implState {
	var out []implState
	for i, r := range roles {
		bit := uint8(1) << uint(i)
		switch r {
		case ImplWaiter, ImplTimedWaiter:
			switch s.pc[i] {
			case iwEnqueue: // the enqueue transaction commits
				n := s
				n.queue[n.qlen] = int8(i)
				n.qlen++
				n.pc[i] = iwSleep
				out = append(out, n)
			case iwSleep, iwLoser: // SEMWAIT: enabled only with a permit
				if s.sem&bit != 0 {
					n := s
					n.sem &^= bit
					n.pc[i] = iwDone
					out = append(out, n)
				}
				if r == ImplTimedWaiter && s.pc[i] == iwSleep {
					// Give up: the unlink transaction commits. Still
					// queued → removed, the wait ends un-notified;
					// already dequeued → the notification wins.
					n := s
					n.pc[i] = iwLoser
					for k := int8(0); k < s.qlen; k++ {
						if s.queue[k] == int8(i) {
							n.unlink(k)
							n.pc[i] = iwDone
							break
						}
					}
					out = append(out, n)
				}
			}

		case ImplNotifyOne:
			switch s.pc[i] {
			case inDequeue:
				if s.qlen > 0 {
					// Dequeue transaction commits (FIFO policy).
					n := s
					n.victim[i] = n.queue[0]
					n.unlink(0)
					n.pc[i] = inPost
					out = append(out, n)
				} else {
					// Empty queue: NotifyOne is a no-op.
					n := s
					n.pc[i] = inDone
					out = append(out, n)
				}
			case inPost: // the onCommit handler fires
				n := s
				n.sem |= uint8(1) << uint8(s.victim[i])
				n.pc[i] = inDone
				out = append(out, n)
			}

		case ImplNotifyAll:
			switch s.pc[i] {
			case inDequeue:
				n := s
				mask := int8(0)
				for k := int8(0); k < s.qlen; k++ {
					mask |= int8(1) << uint8(s.queue[k])
					n.queue[k] = -1
				}
				n.qlen = 0
				n.victim[i] = mask // pending-post bitmask
				n.pc[i] = inPost
				out = append(out, n)
			case inPost:
				if s.victim[i] == 0 {
					n := s
					n.pc[i] = inDone
					out = append(out, n)
				} else {
					// One handler per step, any order (handler order is
					// registration order in the implementation, but the
					// model need not rely on it).
					for w := 0; w < len(roles); w++ {
						wb := int8(1) << uint(w)
						if s.victim[i]&wb == 0 {
							continue
						}
						n := s
						n.victim[i] &^= wb
						n.sem |= uint8(1) << uint(w)
						out = append(out, n)
					}
				}
			}
		}
	}
	return out
}

func checkImplInvariants(roles []ImplRole, s implState) error {
	// Queue sanity and no-duplicate-membership.
	seen := uint8(0)
	for k := int8(0); k < s.qlen; k++ {
		w := s.queue[k]
		if w < 0 || int(w) >= len(roles) || !roles[w].waits() {
			return fmt.Errorf("queue slot %d holds invalid waiter %d", k, w)
		}
		wb := uint8(1) << uint8(w)
		if seen&wb != 0 {
			return fmt.Errorf("waiter %d enqueued twice", w)
		}
		seen |= wb
		// A queued waiter is asleep and unposted: posting happens only
		// after a dequeue, and each waiter enqueues once.
		if s.pc[w] != iwSleep {
			return fmt.Errorf("waiter %d in queue with pc=%d", w, s.pc[w])
		}
		if s.sem&wb != 0 {
			return fmt.Errorf("waiter %d has a permit while still enqueued", w)
		}
	}
	// A permit only ever targets a sleeping (or about-to-consume) waiter;
	// a done waiter has consumed its single permit.
	for i, r := range roles {
		if !r.waits() {
			continue
		}
		bit := uint8(1) << uint(i)
		if s.sem&bit != 0 && s.pc[i] == iwDone {
			return fmt.Errorf("waiter %d done but its semaphore still holds a permit (double post, or a loser abandoned its raced post)", i)
		}
		if s.sem&bit != 0 && s.pc[i] == iwEnqueue {
			return fmt.Errorf("waiter %d posted before ever enqueueing", i)
		}
	}
	// A NotifyOne in the post window targets a real, sleeping waiter.
	for i, r := range roles {
		if r == ImplNotifyOne && s.pc[i] == inPost {
			v := s.victim[i]
			if v < 0 || int(v) >= len(roles) || !roles[v].waits() {
				return fmt.Errorf("notifier %d holds invalid victim %d", i, v)
			}
			if s.pc[v] == iwEnqueue {
				return fmt.Errorf("notifier %d dequeued waiter %d that never enqueued", i, v)
			}
		}
	}
	return nil
}

func checkImplTerminal(roles []ImplRole, s implState) error {
	for i, r := range roles {
		bit := uint8(1) << uint(i)
		switch r {
		case ImplWaiter, ImplTimedWaiter:
			if s.pc[i] == iwLoser {
				return fmt.Errorf("terminal: loser %d dequeued but never posted — lost wake-up", i)
			}
			if s.pc[i] == iwSleep {
				// Stuck asleep is legal ONLY if never notified: still in
				// the queue, no permit pending.
				if s.sem&bit != 0 {
					return fmt.Errorf("terminal: waiter %d has a permit but did not wake (scheduler bug in model)", i)
				}
				inQ := false
				for k := int8(0); k < s.qlen; k++ {
					if s.queue[k] == int8(i) {
						inQ = true
					}
				}
				if !inQ {
					return fmt.Errorf("terminal: waiter %d dequeued but never posted — lost wake-up", i)
				}
			}
		case ImplNotifyOne, ImplNotifyAll:
			if s.pc[i] != inDone {
				return fmt.Errorf("terminal: notifier %d stuck at pc=%d", i, s.pc[i])
			}
		}
	}
	return nil
}
