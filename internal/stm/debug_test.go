package stm

import (
	"fmt"
	"strings"
	"testing"
)

// expectSanitizerPanic is used as `defer expectSanitizerPanic(t, "...")`
// around code that must trip the runtime sanitizer.
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

// A direct store racing a live writer transaction must panic: the locked
// orec is a proof the cell is not privatized.
func TestSanitizerStoreDirectUnderWriter(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgWriteThrough})
	e.SetDebugChecks(true)
	v := NewVar(e, 0)
	defer expectSanitizerPanic(t, "StoreDirect on a Var whose orec is locked")
	e.MustAtomic(func(tx *Tx) {
		Write(tx, v, 1) // encounter-time locking: v's orec is now held
		v.StoreDirect(2)
	})
}

func TestSanitizerLoadDirectUnderWriter(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgWriteThrough})
	e.SetDebugChecks(true)
	v := NewVar(e, 0)
	defer expectSanitizerPanic(t, "LoadDirect on a Var whose orec is locked")
	e.MustAtomic(func(tx *Tx) {
		Write(tx, v, 1)
		_ = v.LoadDirect()
	})
}

// With the sanitizer off (the default), the same misuse goes unnoticed —
// pinning that the checks really are opt-in and cost nothing observable.
func TestSanitizerOffByDefault(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgWriteThrough})
	if e.DebugChecks() != debugDefault {
		t.Fatalf("DebugChecks = %v, want build default %v", e.DebugChecks(), debugDefault)
	}
	if debugDefault {
		t.Skip("built with -tags stmsan; the misuse below panics by design")
	}
	v := NewVar(e, 0)
	e.MustAtomic(func(tx *Tx) {
		Write(tx, v, 1)
		v.StoreDirect(2) // undetected without debug checks
	})
	if got := v.LoadDirect(); got != 2 {
		t.Fatalf("value = %d, want 2", got)
	}
}

// An onCommit handler is an at-most-once effect; executing a retained one
// a second time must panic. (White-box: no public API re-runs handlers —
// the check guards engine regressions.)
func TestSanitizerOnCommitHandlerTwice(t *testing.T) {
	e := NewEngine(Config{})
	e.SetDebugChecks(true)
	var wrapped func([]CommitArg)
	ran := 0
	e.MustAtomic(func(tx *Tx) {
		tx.OnCommit(func() { ran++ })
		wrapped = tx.onCommit[len(tx.onCommit)-1].fn
	})
	if ran != 1 {
		t.Fatalf("handler ran %d times at commit, want 1", ran)
	}
	defer expectSanitizerPanic(t, "onCommit handler executed twice")
	wrapped(nil)
}

// A pre-bound registration is covered by the same check: under the
// sanitizer every OnCommitCall handler is held wrapped, so re-running it
// panics too.
func TestSanitizerOnCommitCallTwice(t *testing.T) {
	e := NewEngine(Config{})
	e.SetDebugChecks(true)
	var wrapped func([]CommitArg)
	var got []uint64
	e.MustAtomic(func(tx *Tx) {
		got = got[:0]
		tx.PushCommitArg(nil, 7)
		tx.OnCommitCall(func(args []CommitArg) { got = append(got, args[0].N) })
		wrapped = tx.onCommit[len(tx.onCommit)-1].fn
	})
	if len(got) != 1 || got[0] != 7 {
		t.Fatalf("pre-bound handler saw %v at commit, want [7]", got)
	}
	defer expectSanitizerPanic(t, "onCommit handler executed twice")
	wrapped(nil)
}

// Legal uses must stay silent with the sanitizer on: direct access before
// sharing and after quiescence, handlers running exactly once, aborted
// attempts discarding their handlers.
func TestSanitizerSilentOnLegalSTMPaths(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgWriteThrough})
	e.SetDebugChecks(true)
	v := NewVar(e, 0)
	v.StoreDirect(41) // single-threaded initialization: legal
	ran := 0
	e.MustAtomic(func(tx *Tx) {
		Write(tx, v, Read(tx, v)+1)
		tx.OnCommit(func() { ran++ })
	})
	if got := v.LoadDirect(); got != 42 { // quiescent read: legal
		t.Fatalf("value = %d, want 42", got)
	}
	if ran != 1 {
		t.Fatalf("handler ran %d times, want 1", ran)
	}
}
