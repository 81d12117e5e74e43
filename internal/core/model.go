package core

import "fmt"

// This file is an exhaustive small-scope model checker for Algorithm 2.
// The paper proves the algorithm linearizable (Theorem 3) via the five
// invariants of Lemma 2; the checker machine-verifies those invariants in
// every reachable state of every interleaving for small thread mixes, plus
// two end-to-end properties:
//
//   - Definition 1(2): every completed WaitStep2 returns false, and at its
//     linearization point the thread is not in Q (the refinement mapping
//     of Theorem 3).
//   - No lost wake-ups: in every terminal state (no step enabled), a
//     waiter still spinning is still in Q — i.e. it was never notified,
//     rather than notified-but-not-woken.
//
// Threads are encoded as tiny state machines whose steps correspond
// one-to-one to the numbered lines of Algorithm 2, matching the paper's
// "each line executes as an atomic step" proof convention (for the loops
// at lines 3 and 7, one iteration = one step).

// Role selects the program a model thread runs.
type Role int

const (
	// RoleWaiter runs WaitStep1 (lines 1–2) then WaitStep2 (line 3).
	RoleWaiter Role = iota
	// RoleNotifyOne runs NotifyOne (lines 4–5).
	RoleNotifyOne
	// RoleNotifyAll runs NotifyAll (lines 6–7).
	RoleNotifyAll
)

func (r Role) String() string {
	switch r {
	case RoleWaiter:
		return "waiter"
	case RoleNotifyOne:
		return "notifyOne"
	case RoleNotifyAll:
		return "notifyAll"
	default:
		return "?"
	}
}

const modelMaxThreads = 8

// mstate is one global state of the model: shared variables plus every
// thread's program counter and locals. It is a value type; steps copy it.
type mstate struct {
	q    uint32 // shared set Q, one bit per waiter thread
	spin uint32 // per-thread spin flags

	pc [modelMaxThreads]uint8

	// NotifyOne locals.
	e uint32                // per-thread "removed something" flag
	x [modelMaxThreads]int8 // per-thread removed-thread id (-1 = none)
	// NotifyAll locals.
	qp [modelMaxThreads]uint32 // per-thread private set Q′
}

// Waiter PCs.
const (
	wAtLine1 = 0 // about to set spin_p
	wAtLine2 = 1 // about to insert into Q
	wAtLine3 = 2 // spinning
	wDone    = 3
)

// NotifyOne PCs.
const (
	n1AtLine4 = 0
	n1AtLine5 = 1
	n1Done    = 2
)

// NotifyAll PCs.
const (
	naAtLine6 = 0
	naAtLine7 = 1
	naDone    = 2
)

// ModelResult summarizes an exhaustive exploration.
type ModelResult struct {
	States      int // distinct reachable states
	Transitions int // explored transitions
	Terminals   int // states with no enabled step
}

// CheckModel exhaustively explores every interleaving of the given thread
// mix and verifies the Lemma 2 invariants in every reachable state, the
// Definition 1 return-value property at every WaitStep2 linearization, and
// the no-lost-wake-up property in every terminal state. It returns
// exploration statistics, or the first violation found.
func CheckModel(roles []Role) (ModelResult, error) {
	if len(roles) > modelMaxThreads {
		return ModelResult{}, fmt.Errorf("core: model supports at most %d threads", modelMaxThreads)
	}
	init := mstate{}
	for i := range init.x {
		init.x[i] = -1
	}
	return explore(init,
		func(s mstate) error { return checkInvariants(roles, s) },
		func(s mstate) ([]mstate, error) { return successors(roles, s) },
		func(s mstate) error { return checkTerminal(roles, s) })
}

// explore is the depth-first search both checkers share. It visits every
// state reachable from init once, runs check on each, expands it with
// next, and runs terminal on each state with no successor. It returns
// exploration statistics, or the first violation found.
func explore[S comparable](init S, check func(S) error, next func(S) ([]S, error), terminal func(S) error) (ModelResult, error) {
	visited := map[S]bool{init: true}
	stack := []S{init}
	var res ModelResult
	for len(stack) > 0 {
		s := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		res.States++

		if err := check(s); err != nil {
			return res, err
		}
		succs, err := next(s)
		if err != nil {
			return res, err
		}
		if len(succs) == 0 {
			res.Terminals++
			if err := terminal(s); err != nil {
				return res, err
			}
			continue
		}
		for _, n := range succs {
			res.Transitions++
			if !visited[n] {
				visited[n] = true
				stack = append(stack, n)
			}
		}
	}
	return res, nil
}

// successors returns every state reachable in one atomic step.
func successors(roles []Role, s mstate) ([]mstate, error) {
	var out []mstate
	for i, r := range roles {
		bit := uint32(1) << uint(i)
		switch r {
		case RoleWaiter:
			switch s.pc[i] {
			case wAtLine1:
				n := s
				n.spin |= bit
				n.pc[i] = wAtLine2
				out = append(out, n)
			case wAtLine2:
				n := s
				n.q |= bit
				n.pc[i] = wAtLine3
				out = append(out, n)
			case wAtLine3:
				if s.spin&bit == 0 {
					// WaitStep2 linearizes here, returning false.
					// Refinement check (Theorem 3): p must not be in Q.
					if s.q&bit != 0 {
						return nil, fmt.Errorf("thread %d: WaitStep2 completing while still in Q", i)
					}
					n := s
					n.pc[i] = wDone
					out = append(out, n)
				}
				// spin still set: the loop iteration is a no-op step
				// (self-loop); omitted to keep the state space finite.
			}

		case RoleNotifyOne:
			switch s.pc[i] {
			case n1AtLine4:
				if s.q == 0 {
					n := s
					n.e &^= bit
					n.pc[i] = n1Done // e=false: line 5's conditional is vacuous
					out = append(out, n)
				} else {
					// Nondeterministic choice of x ∈ Q: branch on every
					// member, as the specification allows any.
					for t := 0; t < len(roles); t++ {
						tb := uint32(1) << uint(t)
						if s.q&tb == 0 {
							continue
						}
						n := s
						n.q &^= tb
						n.e |= bit
						n.x[i] = int8(t)
						n.pc[i] = n1AtLine5
						out = append(out, n)
					}
				}
			case n1AtLine5:
				n := s
				n.spin &^= uint32(1) << uint8(s.x[i])
				n.pc[i] = n1Done
				out = append(out, n)
			}

		case RoleNotifyAll:
			switch s.pc[i] {
			case naAtLine6:
				n := s
				n.qp[i] = s.q
				n.q = 0
				n.pc[i] = naAtLine7
				out = append(out, n)
			case naAtLine7:
				if s.qp[i] == 0 {
					n := s
					n.pc[i] = naDone
					out = append(out, n)
				} else {
					for t := 0; t < len(roles); t++ {
						tb := uint32(1) << uint(t)
						if s.qp[i]&tb == 0 {
							continue
						}
						n := s
						n.qp[i] &^= tb
						n.spin &^= tb
						out = append(out, n)
					}
				}
			}
		}
	}
	return out, nil
}

// checkInvariants verifies Lemma 2's five invariants in state s.
func checkInvariants(roles []Role, s mstate) error {
	for i, r := range roles {
		bit := uint32(1) << uint(i)
		switch r {
		case RoleWaiter:
			// (1) p@1 ⟹ ¬spin_p
			if s.pc[i] == wAtLine1 && s.spin&bit != 0 {
				return fmt.Errorf("invariant 1 violated: waiter %d at line 1 with spin set", i)
			}
			// (2) p@2 ⟹ spin_p
			if s.pc[i] == wAtLine2 && s.spin&bit == 0 {
				return fmt.Errorf("invariant 2 violated: waiter %d at line 2 without spin", i)
			}
			// (3) p ∈ Q ⟹ p@3 ∧ spin_p
			if s.q&bit != 0 {
				if s.pc[i] != wAtLine3 || s.spin&bit == 0 {
					return fmt.Errorf("invariant 3 violated: waiter %d in Q with pc=%d spin=%v",
						i, s.pc[i], s.spin&bit != 0)
				}
			}
		case RoleNotifyOne:
			// (4) p@5 ∧ e ⟹ x@3 ∧ spin_x
			if s.pc[i] == n1AtLine5 && s.e&bit != 0 {
				x := int(s.x[i])
				xb := uint32(1) << uint(x)
				if x < 0 || x >= len(roles) || roles[x] != RoleWaiter {
					return fmt.Errorf("invariant 4 violated: notifier %d removed non-waiter %d", i, x)
				}
				if s.pc[x] != wAtLine3 || s.spin&xb == 0 {
					return fmt.Errorf("invariant 4 violated: notifier %d at line 5, waiter %d pc=%d spin=%v",
						i, x, s.pc[x], s.spin&xb != 0)
				}
			}
		case RoleNotifyAll:
			// (5) p@7 ∧ x ∈ Q′ ⟹ x@3 ∧ spin_x
			if s.pc[i] == naAtLine7 {
				for t := 0; t < len(roles); t++ {
					tb := uint32(1) << uint(t)
					if s.qp[i]&tb == 0 {
						continue
					}
					if s.pc[t] != wAtLine3 || s.spin&tb == 0 {
						return fmt.Errorf("invariant 5 violated: notifyAll %d holds waiter %d in Q′ with pc=%d spin=%v",
							i, t, s.pc[t], s.spin&tb != 0)
					}
				}
			}
		}
	}
	return nil
}

// checkTerminal verifies the no-lost-wake-up property: in a state with no
// enabled step, every still-spinning waiter must still be in Q (so it was
// simply never notified — the legal "notify arrived before wait" loss —
// rather than removed from Q without its flag being cleared).
func checkTerminal(roles []Role, s mstate) error {
	for i, r := range roles {
		if r != RoleWaiter {
			continue
		}
		bit := uint32(1) << uint(i)
		if s.pc[i] == wAtLine3 && s.spin&bit != 0 {
			if s.q&bit == 0 {
				return fmt.Errorf("lost wake-up: waiter %d spinning, not in Q, all notifiers done", i)
			}
		}
	}
	return nil
}
