package core

import "testing"

func TestImplModelMixes(t *testing.T) {
	mixes := []struct {
		name  string
		roles []ImplRole
	}{
		{"1w_1n1", []ImplRole{ImplWaiter, ImplNotifyOne}},
		{"2w_1n1", []ImplRole{ImplWaiter, ImplWaiter, ImplNotifyOne}},
		{"2w_2n1", []ImplRole{ImplWaiter, ImplWaiter, ImplNotifyOne, ImplNotifyOne}},
		{"1w_1nall", []ImplRole{ImplWaiter, ImplNotifyAll}},
		{"2w_1nall", []ImplRole{ImplWaiter, ImplWaiter, ImplNotifyAll}},
		{"3w_1nall", []ImplRole{ImplWaiter, ImplWaiter, ImplWaiter, ImplNotifyAll}},
		{"2w_1n1_1nall", []ImplRole{ImplWaiter, ImplWaiter, ImplNotifyOne, ImplNotifyAll}},
		{"3w_2n1", []ImplRole{ImplWaiter, ImplWaiter, ImplWaiter, ImplNotifyOne, ImplNotifyOne}},
		{"3w_1n1_1nall", []ImplRole{ImplWaiter, ImplWaiter, ImplWaiter, ImplNotifyOne, ImplNotifyAll}},
		{"2w_2nall", []ImplRole{ImplWaiter, ImplWaiter, ImplNotifyAll, ImplNotifyAll}},
		{"1t_1n1", []ImplRole{ImplTimedWaiter, ImplNotifyOne}},
		{"1t_1w_1n1", []ImplRole{ImplTimedWaiter, ImplWaiter, ImplNotifyOne}},
		{"2t_1nall", []ImplRole{ImplTimedWaiter, ImplTimedWaiter, ImplNotifyAll}},
		{"2t_1w_1nall", []ImplRole{ImplTimedWaiter, ImplTimedWaiter, ImplWaiter, ImplNotifyAll}},
		{"1t_1w_1n1_1nall", []ImplRole{ImplTimedWaiter, ImplWaiter, ImplNotifyOne, ImplNotifyAll}},
		{"2t_2n1", []ImplRole{ImplTimedWaiter, ImplTimedWaiter, ImplNotifyOne, ImplNotifyOne}},
		{"waiters_only", []ImplRole{ImplWaiter, ImplTimedWaiter}},
		{"notifiers_only", []ImplRole{ImplNotifyOne, ImplNotifyAll}},
	}
	for _, m := range mixes {
		m := m
		t.Run(m.name, func(t *testing.T) {
			res, err := CheckImplModel(m.roles)
			if err != nil {
				t.Fatalf("impl model violation: %v (after %d states)", err, res.States)
			}
			if res.States == 0 {
				t.Fatal("explored no states")
			}
			t.Logf("states=%d transitions=%d terminals=%d", res.States, res.Transitions, res.Terminals)
		})
	}
}

func TestImplModelRejectsTooManyThreads(t *testing.T) {
	roles := make([]ImplRole, implMaxThreads+1)
	if _, err := CheckImplModel(roles); err == nil {
		t.Fatal("expected error for oversized mix")
	}
}

func TestImplRoleString(t *testing.T) {
	if ImplWaiter.String() != "waiter" || ImplNotifyOne.String() != "notifyOne" ||
		ImplNotifyAll.String() != "notifyAll" || ImplTimedWaiter.String() != "timedWaiter" {
		t.Fatal("ImplRole.String mismatch")
	}
}

// The loser invariants have teeth: a finished loser that left its raced
// post behind, and a loser still waiting when nothing can run, are both
// rejected.
func TestImplModelLoserInvariants(t *testing.T) {
	roles := []ImplRole{ImplTimedWaiter, ImplNotifyOne}
	var s implState
	s.pc[0], s.pc[1], s.sem = iwDone, inDone, 1
	if checkImplInvariants(roles, s) == nil {
		t.Error("a permit left in a finished loser's semaphore went unreported")
	}
	s.pc[0], s.sem = iwLoser, 0
	if checkImplTerminal(roles, s) == nil {
		t.Error("a loser stuck without its post went unreported")
	}
}

// FuzzImplModel lets the fuzzer pick role mixes; any mix must verify.
func FuzzImplModel(f *testing.F) {
	f.Add([]byte{0, 1})       // waiter + notifyOne
	f.Add([]byte{0, 0, 2})    // 2 waiters + notifyAll
	f.Add([]byte{0, 1, 2, 0}) // mixed
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 5 {
			t.Skip()
		}
		roles := make([]ImplRole, len(raw))
		for i, b := range raw {
			roles[i] = ImplRole(b % 4)
		}
		if _, err := CheckImplModel(roles); err != nil {
			t.Fatalf("mix %v: %v", roles, err)
		}
	})
}

// FuzzAbstractModel does the same for the Algorithm 2 checker.
func FuzzAbstractModel(f *testing.F) {
	f.Add([]byte{0, 1})
	f.Add([]byte{0, 0, 2})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 || len(raw) > 5 {
			t.Skip()
		}
		roles := make([]Role, len(raw))
		for i, b := range raw {
			roles[i] = Role(b % 3)
		}
		if _, err := CheckModel(roles); err != nil {
			t.Fatalf("mix %v: %v", roles, err)
		}
	})
}
