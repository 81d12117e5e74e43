// Command modelcheck exhaustively verifies the paper's correctness
// arguments over every interleaving of small thread mixes:
//
//   - the ABSTRACT model (Algorithm 2, the generic spin-flag condvar):
//     the five Lemma 2 invariants in every reachable state, Definition 1's
//     "WaitStep2 returns false" at every linearization, and the absence of
//     lost wake-ups in terminal states;
//   - the IMPLEMENTATION model (Algorithms 3–6, the transactional queue of
//     semaphores with commit-deferred SEMPOST, and the timeout/cancel
//     loser path): each semaphore receives at most one post, no waiter
//     wakes unposted, no notified waiter is lost, and no finished waiter
//     leaves a permit behind.
//
// Usage:
//
//	modelcheck [-waiters N] [-notifyone N] [-notifyall N]
//
// With no flags, a standard battery of mixes runs, including the loser
// mixes (timed waiters, which only the implementation model has). State
// counts grow combinatorially; mixes up to 5 threads verify in well
// under a second.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/internal/core"
)

func main() {
	waiters := flag.Int("waiters", 0, "waiter threads (0 = run the standard battery)")
	notifyOne := flag.Int("notifyone", 0, "NotifyOne threads")
	notifyAll := flag.Int("notifyall", 0, "NotifyAll threads")
	flag.Parse()

	if *waiters+*notifyOne+*notifyAll > 0 {
		runMix(*waiters, 0, *notifyOne, *notifyAll)
		return
	}

	// {live waiters, timed waiters, NotifyOnes, NotifyAlls}
	battery := [][4]int{
		{1, 0, 1, 0}, {2, 0, 1, 0}, {2, 0, 2, 0}, {3, 0, 2, 0},
		{1, 0, 0, 1}, {2, 0, 0, 1}, {3, 0, 0, 1}, {2, 0, 0, 2},
		{2, 0, 1, 1}, {3, 0, 1, 1},
		{0, 1, 1, 0}, {1, 1, 1, 0}, {0, 2, 0, 1}, {1, 2, 0, 1},
		{1, 1, 1, 1}, {0, 2, 2, 0},
	}
	for _, m := range battery {
		runMix(m[0], m[1], m[2], m[3])
	}
	fmt.Println("RESULT: all mixes verified")
}

// runMix checks one mix under both models. Timed waiters exist only in
// the implementation model; the abstract model sees them as waiters that
// never give up.
func runMix(w, timed, n1, na int) {
	var abs []core.Role
	var impl []core.ImplRole
	add := func(n int, a core.Role, i core.ImplRole) {
		for ; n > 0; n-- {
			abs = append(abs, a)
			impl = append(impl, i)
		}
	}
	add(w, core.RoleWaiter, core.ImplWaiter)
	add(timed, core.RoleWaiter, core.ImplTimedWaiter)
	add(n1, core.RoleNotifyOne, core.ImplNotifyOne)
	add(na, core.RoleNotifyAll, core.ImplNotifyAll)

	aRes, aErr := core.CheckModel(abs)
	iRes, iErr := core.CheckImplModel(impl)
	fmt.Printf("mix %dw/%dtimed/%dn1/%dnall: abstract %6d states, impl %6d states",
		w, timed, n1, na, aRes.States, iRes.States)
	if aErr != nil || iErr != nil {
		fmt.Println("  VIOLATION")
		if aErr != nil {
			fmt.Fprintln(os.Stderr, "  abstract:", aErr)
		}
		if iErr != nil {
			fmt.Fprintln(os.Stderr, "  impl:", iErr)
		}
		os.Exit(1)
	}
	fmt.Println("  ok")
}
