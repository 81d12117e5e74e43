package stm

import "testing"

// A read newer than the snapshot extends it. A writer that commits
// between that read's consistent (orec, value, orec) pair and the
// extension's clock load draws a stamp at or below the new snapshot, so
// the read must be taken again: accepted as it was, a later read sees
// the writer's commit beside the pre-commit value, and the read-only
// commit, which does not revalidate, returns the torn pair. extendHook
// commits that writer at exactly that point.
func TestExtensionRereadsTheExtendingRead(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	a, b := NewVar(e, 0), NewVar(e, 0)
	inc := func(tx *Tx) {
		Write(tx, a, Read(tx, a)+1)
		Write(tx, b, Read(tx, b)+1)
	}
	hooked := false
	extendHook = func() {
		if !hooked {
			hooked = true
			e.MustAtomic(inc)
		}
	}
	defer func() { extendHook = nil }()

	first := true
	var av, bv int
	if err := e.AtomicRead(func(tx *Tx) {
		if first {
			first = false
			// a and b now carry a version newer than tx's snapshot. The
			// outer attempt holds no orec and no serial transaction runs.
			// cvlint:ignore lockorder the reader owns nothing the writer needs
			e.MustAtomic(inc)
		}
		av, bv = Read(tx, a), Read(tx, b)
	}); err != nil {
		t.Fatal(err)
	}
	if !hooked {
		t.Fatal("the read of a never extended the snapshot")
	}
	if av != bv || av != 2 {
		t.Errorf("AtomicRead returned a=%d b=%d, want both 2", av, bv)
	}
}
