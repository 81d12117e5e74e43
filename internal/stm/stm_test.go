package stm

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
)

// allAlgorithms enumerates the engines under test; most behavioural tests
// run against every algorithm.
var allAlgorithms = []Algorithm{AlgWriteThrough, AlgHTM}

func newTestEngine(a Algorithm) *Engine {
	return NewEngine(Config{Algorithm: a, Name: "test-" + a.String()})
}

func forEachAlg(t *testing.T, f func(t *testing.T, e *Engine)) {
	t.Helper()
	for _, a := range allAlgorithms {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			f(t, newTestEngine(a))
		})
	}
}

func TestReadWriteCommit(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 10)
		e.MustAtomic(func(tx *Tx) {
			if got := Read(tx, v); got != 10 {
				t.Fatalf("Read = %d, want 10", got)
			}
			Write(tx, v, 42)
		})
		if got := v.LoadDirect(); got != 42 {
			t.Fatalf("after commit v = %d, want 42", got)
		}
	})
}

func TestReadOwnWrite(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 1)
		e.MustAtomic(func(tx *Tx) {
			Write(tx, v, 2)
			if got := Read(tx, v); got != 2 {
				t.Fatalf("read-own-write = %d, want 2", got)
			}
			Write(tx, v, 3)
			if got := Read(tx, v); got != 3 {
				t.Fatalf("read-own-write = %d, want 3", got)
			}
		})
		if got := v.LoadDirect(); got != 3 {
			t.Fatalf("final = %d, want 3", got)
		}
	})
}

func TestModify(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 5)
		e.MustAtomic(func(tx *Tx) {
			Modify(tx, v, func(n int) int { return n * 3 })
		})
		if got := v.LoadDirect(); got != 15 {
			t.Fatalf("Modify result = %d, want 15", got)
		}
	})
}

func TestVarZeroAndInterfaceValues(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	ve := NewVar[error](e, nil)
	vp := NewVar[*int](e, nil)
	e.MustAtomic(func(tx *Tx) {
		if Read(tx, ve) != nil {
			t.Fatal("nil error round-trip failed")
		}
		if Read(tx, vp) != nil {
			t.Fatal("nil pointer round-trip failed")
		}
		Write(tx, ve, errors.New("boom"))
		n := 7
		Write(tx, vp, &n)
	})
	if ve.LoadDirect() == nil || ve.LoadDirect().Error() != "boom" {
		t.Fatal("error value lost")
	}
	if p := vp.LoadDirect(); p == nil || *p != 7 {
		t.Fatal("pointer value lost")
	}
}

func TestDirectAccess(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	v := NewVar(e, "a")
	v.StoreDirect("b")
	if got := v.LoadDirect(); got != "b" {
		t.Fatalf("LoadDirect = %q, want %q", got, "b")
	}
}

func TestCancelReturnsErrorAndRollsBack(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 1)
		errBoom := errors.New("boom")
		err := e.Atomic(func(tx *Tx) {
			Write(tx, v, 99)
			tx.Cancel(errBoom)
		})
		if !errors.Is(err, errBoom) {
			t.Fatalf("err = %v, want %v", err, errBoom)
		}
		if got := v.LoadDirect(); got != 1 {
			t.Fatalf("after cancel v = %d, want 1 (rolled back)", got)
		}
	})
}

func TestMustAtomicPanicsOnCancel(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	defer func() {
		if recover() == nil {
			t.Fatal("MustAtomic did not panic on Cancel")
		}
	}()
	e.MustAtomic(func(tx *Tx) { tx.Cancel(errors.New("x")) })
}

func TestRestartRetries(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 0)
		attempts := 0
		e.MustAtomic(func(tx *Tx) {
			attempts++
			Write(tx, v, attempts)
			if tx.Attempt() == 0 {
				tx.Restart()
			}
		})
		if attempts != 2 {
			t.Fatalf("attempts = %d, want 2", attempts)
		}
		if got := v.LoadDirect(); got != 2 {
			t.Fatalf("v = %d, want 2 (first attempt rolled back)", got)
		}
	})
}

func TestFlatNesting(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 0)
		e.MustAtomic(func(tx *Tx) {
			if tx.Depth() != 0 {
				t.Fatalf("outer depth = %d", tx.Depth())
			}
			Write(tx, v, 1)
			tx.Atomic(func(tx *Tx) {
				if tx.Depth() != 1 {
					t.Fatalf("inner depth = %d", tx.Depth())
				}
				// Flat nesting: inner sees outer's write.
				if got := Read(tx, v); got != 1 {
					t.Fatalf("nested read = %d, want 1", got)
				}
				Write(tx, v, 2)
			})
			if got := Read(tx, v); got != 2 {
				t.Fatalf("outer read after nested write = %d, want 2", got)
			}
		})
		if got := v.LoadDirect(); got != 2 {
			t.Fatalf("v = %d, want 2", got)
		}
	})
}

func TestNestedAbortRollsBackWholeTxn(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 0)
		errStop := errors.New("stop")
		err := e.Atomic(func(tx *Tx) {
			Write(tx, v, 1)
			tx.Atomic(func(tx *Tx) {
				Write(tx, v, 2)
				tx.Cancel(errStop)
			})
			t.Fatal("unreachable: nested Cancel must unwind the outer block")
		})
		if !errors.Is(err, errStop) {
			t.Fatalf("err = %v", err)
		}
		if got := v.LoadDirect(); got != 0 {
			t.Fatalf("v = %d, want 0 (whole flattened txn rolled back)", got)
		}
	})
}

func TestOnCommitRunsOnceInOrder(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		var order []int
		e.MustAtomic(func(tx *Tx) {
			tx.OnCommit(func() { order = append(order, 1) })
			tx.Atomic(func(tx *Tx) {
				tx.OnCommit(func() { order = append(order, 2) })
			})
			tx.OnCommit(func() { order = append(order, 3) })
		})
		if fmt.Sprint(order) != "[1 2 3]" {
			t.Fatalf("handler order = %v, want [1 2 3]", order)
		}
	})
}

func TestOnCommitDiscardedOnCancel(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		ran := false
		_ = e.Atomic(func(tx *Tx) {
			tx.OnCommit(func() { ran = true })
			tx.Cancel(errors.New("x"))
		})
		if ran {
			t.Fatal("onCommit handler ran despite cancel")
		}
	})
}

// A pre-bound handler gets exactly the arguments pushed since the
// previous registration, runs in registration order among closure
// handlers, and is discarded with an aborted attempt together with its
// arguments: a retried attempt starts from an empty argument log.
func TestOnCommitCallArgsOrderAndAbort(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		var order []uint64
		record := func(args []CommitArg) {
			for _, a := range args {
				order = append(order, a.N)
			}
		}
		tries := 0
		e.MustAtomic(func(tx *Tx) {
			tries++
			order = order[:0]
			tx.PushCommitArg(nil, 1)
			tx.OnCommitCall(record)
			if tries == 1 {
				tx.PushCommitArg(nil, 99)
				tx.Restart()
			}
			tx.OnCommit(func() { order = append(order, 2) })
			tx.PushCommitArg(nil, 3)
			tx.PushCommitArg(nil, 4)
			tx.OnCommitCall(record)
		})
		if want := []uint64{1, 2, 3, 4}; !reflect.DeepEqual(order, want) {
			t.Fatalf("handler order = %v, want %v", order, want)
		}
		ran := false
		_ = e.Atomic(func(tx *Tx) {
			tx.PushCommitArg(nil, 5)
			tx.OnCommitCall(func([]CommitArg) { ran = true })
			tx.Cancel(errors.New("x"))
		})
		if ran {
			t.Fatal("pre-bound handler ran despite cancel")
		}
	})
}

// A closure registered with OnCommit is OnCommitCall's one argument: a
// func value boxes without allocating, so a warm Tx registering a
// non-capturing func allocates nothing either.
func TestOnCommitNoAlloc(t *testing.T) {
	if raceEnabled || debugDefault {
		t.Skip("race detector shadow state and the sanitizer's wrapper allocate")
	}
	e := NewEngine(Config{})
	v := NewVar(e, 0)
	body := func(tx *Tx) {
		Write(tx, v, Read(tx, v)+1)
		tx.OnCommit(countCommit)
	}
	e.MustAtomic(body)
	before := commits.Load()
	if a := testing.AllocsPerRun(1000, func() { e.MustAtomic(body) }); a != 0 {
		t.Errorf("transaction with an OnCommit handler allocates %.1f times per op", a)
	}
	if got := commits.Load() - before; got != 1001 {
		t.Errorf("handler ran %d times, want 1001", got)
	}
}

// commits counts countCommit's runs; countCommit captures nothing.
var commits atomic.Int64

func countCommit() { commits.Add(1) }

// postArg is a top-level handler: registering it captures nothing.
func postArg(args []CommitArg) { *args[0].P.(*uint64) += args[0].N }

// Registering a pre-bound handler with a top-level function allocates
// nothing once the Tx pool and its logs are warm.
func TestOnCommitCallNoAlloc(t *testing.T) {
	if raceEnabled || debugDefault {
		t.Skip("race detector shadow state and the sanitizer's wrapper allocate")
	}
	e := NewEngine(Config{})
	v := NewVar(e, 0)
	var sum uint64
	body := func(tx *Tx) {
		Write(tx, v, Read(tx, v)+1)
		tx.PushCommitArg(&sum, 2)
		tx.OnCommitCall(postArg)
	}
	e.MustAtomic(body)
	if a := testing.AllocsPerRun(1000, func() { e.MustAtomic(body) }); a != 0 {
		t.Errorf("transaction with a pre-bound handler allocates %.1f times per op", a)
	}
	if sum != 2*1002 {
		t.Errorf("handler sum = %d, want %d", sum, 2*1002)
	}
}

func TestOnAbortRunsOnCancel(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		ran := 0
		_ = e.Atomic(func(tx *Tx) {
			tx.OnAbort(func() { ran++ })
			tx.Cancel(errors.New("x"))
		})
		if ran != 1 {
			t.Fatalf("onAbort ran %d times, want 1", ran)
		}
	})
}

func TestSavedRestoresLocalOnAbort(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 0)
		outer := 100
		attempts := 0
		e.MustAtomic(func(tx *Tx) {
			attempts++
			Saved(tx, &outer)
			outer += 5 // non-idempotent: would double without Saved
			Write(tx, v, outer)
			if tx.Attempt() == 0 {
				tx.Restart()
			}
		})
		if attempts != 2 {
			t.Fatalf("attempts = %d", attempts)
		}
		if outer != 105 {
			t.Fatalf("outer = %d, want 105 (restored then re-added once)", outer)
		}
		if got := v.LoadDirect(); got != 105 {
			t.Fatalf("v = %d, want 105", got)
		}
	})
}

func TestSavedSlice(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	s := []int{1, 2, 3}
	_ = e.Atomic(func(tx *Tx) {
		SavedSlice(tx, s)
		s[0], s[1], s[2] = 9, 9, 9
		tx.Cancel(errors.New("x"))
	})
	if fmt.Sprint(s) != "[1 2 3]" {
		t.Fatalf("slice = %v, want [1 2 3]", s)
	}
}

func TestCommitEarlyPublishesAndKillsTx(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 0)
		handlerRan := false
		after := 0
		e.MustAtomic(func(tx *Tx) {
			Write(tx, v, 7)
			tx.OnCommit(func() {
				handlerRan = true
				// The commit is visible before handlers run.
				if got := v.LoadDirect(); got != 7 {
					t.Errorf("in handler v = %d, want 7", got)
				}
			})
			tx.CommitEarly()
			after++
			if tx.Active() {
				t.Error("tx still active after CommitEarly")
			}
			// Any transactional access now must panic.
			func() {
				defer func() {
					if recover() == nil {
						t.Error("Read after CommitEarly did not panic")
					}
				}()
				Read(tx, v)
			}()
		})
		if !handlerRan {
			t.Fatal("onCommit handler did not run at early commit")
		}
		if after != 1 {
			t.Fatalf("post-commit code ran %d times, want 1", after)
		}
		if got := e.Stats.EarlyCommits.Load(); got != 1 {
			t.Fatalf("EarlyCommits = %d, want 1", got)
		}
	})
}

// TestCommitEarlyConflictRetries forces the early commit of attempt 0 to
// fail validation, checking that the whole first half re-executes — the
// paper's punctuated-transaction retry semantics.
func TestCommitEarlyConflictRetries(t *testing.T) {
	for _, a := range allAlgorithms {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			e := NewEngine(Config{Algorithm: a, OrecCount: 1 << 16})
			x := NewVar(e, 0)
			y := NewVar(e, -1)
			step := make(chan struct{})
			go func() {
				<-step
				e.MustAtomic(func(tx *Tx) { Write(tx, x, 10) })
				step <- struct{}{}
			}()
			attempts, after := 0, 0
			e.MustAtomic(func(tx *Tx) {
				attempts++
				seen := Read(tx, x)
				Write(tx, y, seen)
				if attempts == 1 {
					step <- struct{}{}
					<-step // helper committed x=10; our read of x is now stale
				}
				tx.CommitEarly()
				after++
			})
			if attempts != 2 {
				t.Fatalf("attempts = %d, want 2", attempts)
			}
			if after != 1 {
				t.Fatalf("post-commit half ran %d times, want 1", after)
			}
			if got := y.LoadDirect(); got != 10 {
				t.Fatalf("y = %d, want 10", got)
			}
		})
	}
}

func TestSerialFallbackAfterRetries(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgWriteThrough, MaxRetries: 2})
	v := NewVar(e, 0)
	sawSerial := false
	e.MustAtomic(func(tx *Tx) {
		if tx.Serial() {
			sawSerial = true
			Write(tx, v, 1)
			return
		}
		tx.Restart()
	})
	if !sawSerial {
		t.Fatal("never reached serial mode")
	}
	if got := v.LoadDirect(); got != 1 {
		t.Fatalf("v = %d, want 1", got)
	}
	if got := e.Stats.SerialFallback.Load(); got != 1 {
		t.Fatalf("SerialFallback = %d, want 1", got)
	}
	if got := e.Stats.SerialCommits.Load(); got != 1 {
		t.Fatalf("SerialCommits = %d, want 1", got)
	}
}

func TestSerialCannotCancel(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	err := e.AtomicRelaxed(func(tx *Tx) {
		defer func() {
			if recover() == nil {
				t.Error("Cancel in relaxed txn did not panic")
			}
		}()
		tx.Cancel(errors.New("x"))
	})
	if err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestAtomicRelaxedRunsOnceSerially(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	v := NewVar(e, 0)
	runs := 0
	err := e.AtomicRelaxed(func(tx *Tx) {
		runs++
		if !tx.Serial() {
			t.Error("relaxed txn not serial")
		}
		Write(tx, v, Read(tx, v)+1)
	})
	if err != nil || runs != 1 {
		t.Fatalf("err=%v runs=%d", err, runs)
	}
	if got := v.LoadDirect(); got != 1 {
		t.Fatalf("v = %d, want 1", got)
	}
	if got := e.Stats.RelaxedTxns.Load(); got != 1 {
		t.Fatalf("RelaxedTxns = %d, want 1", got)
	}
}

// TestRelaxedExcludesOptimists checks the gate: no optimistic transaction
// may observe the intermediate state of a running relaxed transaction.
func TestRelaxedExcludesOptimists(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		marker := NewVar(e, 0)
		var wg sync.WaitGroup
		stop := make(chan struct{})
		var violations atomic.Int64
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					e.MustAtomic(func(tx *Tx) {
						if Read(tx, marker) == 1 {
							violations.Add(1)
						}
					})
				}
			}()
		}
		for i := 0; i < 50; i++ {
			e.AtomicRelaxed(func(tx *Tx) {
				Write(tx, marker, 1) // intermediate state
				Write(tx, marker, 2) // final state
			})
			e.AtomicRelaxed(func(tx *Tx) { Write(tx, marker, 0) })
		}
		close(stop)
		wg.Wait()
		if v := violations.Load(); v != 0 {
			t.Fatalf("%d optimistic txns observed relaxed intermediate state", v)
		}
	})
}

func TestHTMCapacityFallback(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgHTM, HTMCapacity: 4, MaxRetries: 2})
	vars := make([]*Var[int], 10)
	for i := range vars {
		vars[i] = NewVar(e, 0)
	}
	e.MustAtomic(func(tx *Tx) {
		for i, v := range vars {
			Write(tx, v, i+1)
		}
	})
	for i, v := range vars {
		if got := v.LoadDirect(); got != i+1 {
			t.Fatalf("vars[%d] = %d, want %d", i, got, i+1)
		}
	}
	if e.Stats.CapacityAborts.Load() == 0 {
		t.Fatal("expected capacity aborts")
	}
	if e.Stats.SerialCommits.Load() != 1 {
		t.Fatalf("SerialCommits = %d, want 1", e.Stats.SerialCommits.Load())
	}
}

func TestHTMSyscallAbortsToSerial(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgHTM})
	v := NewVar(e, 0)
	serialRuns := 0
	e.MustAtomic(func(tx *Tx) {
		Write(tx, v, 1)
		tx.Syscall() // aborts the HW attempt, next run is serial
		serialRuns++
		if !tx.Serial() {
			t.Error("post-syscall attempt is not serial")
		}
	})
	if serialRuns != 1 {
		t.Fatalf("serial body ran %d times, want 1", serialRuns)
	}
	if e.Stats.SyscallAborts.Load() != 1 {
		t.Fatalf("SyscallAborts = %d, want 1", e.Stats.SyscallAborts.Load())
	}
	if got := v.LoadDirect(); got != 1 {
		t.Fatalf("v = %d, want 1", got)
	}
}

func TestSyscallNoopOnSoftware(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	runs := 0
	e.MustAtomic(func(tx *Tx) {
		runs++
		tx.Syscall()
	})
	if runs != 1 {
		t.Fatalf("runs = %d, want 1", runs)
	}
}

// TestUserPanicPropagatesAndReleasesGate: a panic from the atomic
// function propagates and leaks no gate. Before an early commit the
// attempt rolls back as an abort; after one it stays committed — its
// write is published, its OnAbort handlers never run and no abort is
// counted.
func TestUserPanicPropagatesAndReleasesGate(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		for _, tc := range []struct {
			name        string
			commitEarly bool
			want        int
		}{
			{"before-commit", false, 0},
			{"after-commit-early", true, 9},
		} {
			t.Run(tc.name, func(t *testing.T) {
				v := NewVar(e, 0)
				aborts := e.Stats.Aborts.Load()
				onAbort := false
				func() {
					defer func() {
						if r := recover(); r != "user boom" {
							t.Fatalf("recovered %v", r)
						}
					}()
					e.MustAtomic(func(tx *Tx) {
						tx.OnAbort(func() { onAbort = true })
						Write(tx, v, 9)
						if tc.commitEarly {
							tx.CommitEarly()
						}
						panic("user boom")
					})
				}()
				if got := v.LoadDirect(); got != tc.want {
					t.Fatalf("v = %d, want %d", got, tc.want)
				}
				wantAborts := int64(1)
				if tc.commitEarly {
					wantAborts = 0
				}
				if got := e.Stats.Aborts.Load() - aborts; got != wantAborts || onAbort != (wantAborts == 1) {
					t.Fatalf("OnAbort ran %v and %d aborts counted, want %d", onAbort, got, wantAborts)
				}
				// The serial gate must not be leaked: a relaxed txn must proceed.
				done := make(chan struct{})
				go func() {
					e.AtomicRelaxed(func(tx *Tx) {})
					close(done)
				}()
				<-done
			})
		}
	})
}

// TestSnapshotExtension drives the deterministic extension path: read A,
// let another txn bump B's version, then write B. Software only: HTM
// aborts where software extends.
func TestSnapshotExtension(t *testing.T) {
	for _, a := range []Algorithm{AlgWriteThrough} {
		a := a
		t.Run(a.String(), func(t *testing.T) {
			e := NewEngine(Config{Algorithm: a, OrecCount: 1 << 16})
			x := NewVar(e, 1)
			b := NewVar(e, 0)
			step := make(chan struct{})
			go func() {
				<-step
				e.MustAtomic(func(tx *Tx) { Write(tx, b, 5) })
				step <- struct{}{}
			}()
			attempts := 0
			e.MustAtomic(func(tx *Tx) {
				attempts++
				_ = Read(tx, x)
				if attempts == 1 {
					step <- struct{}{}
					<-step
				}
				// b's orec version now exceeds our snapshot; since x is
				// unchanged the extension must succeed without a retry.
				Write(tx, b, Read(tx, b)+1)
			})
			if attempts != 1 {
				t.Fatalf("attempts = %d, want 1 (extension should avoid retry)", attempts)
			}
			if e.Stats.Extensions.Load() == 0 {
				t.Fatal("no extension recorded")
			}
			if got := b.LoadDirect(); got != 6 {
				t.Fatalf("b = %d, want 6", got)
			}
		})
	}
}

// A goroutine's snapshot always covers its own last commit, so read-
// modify-write commits with no other writer never extend.
func TestOwnCommitsNeverExtend(t *testing.T) {
	e := NewEngine(Config{})
	v := NewVar(e, 0)
	for i := 0; i < 1000; i++ {
		e.MustAtomic(func(tx *Tx) { Write(tx, v, Read(tx, v)+1) })
	}
	if n := e.Stats.Extensions.Load(); n != 0 {
		t.Fatalf("%d snapshot extensions, want 0", n)
	}
}

// Now is the newest timestamp issued: each update commit advances the
// clock by one and stamps what it wrote with the new value.
func TestNowIsNewestStamp(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 0)
		for k := uint64(1); k <= 5; k++ {
			e.MustAtomic(func(tx *Tx) { Write(tx, v, Read(tx, v)+1) })
			if got := e.Now(); got != k {
				t.Fatalf("after %d commits Now() = %d", k, got)
			}
			if got := versionOf(v.base.o.load()); got != k {
				t.Fatalf("after %d commits the orec carries version %d", k, got)
			}
		}
	})
}

// Serial commits interleaved with optimistic ones on one pair of Vars:
// every update survives and no snapshot is ever torn, on every
// algorithm.
func TestSerialOptimisticInterleave(t *testing.T) {
	for _, alg := range allAlgorithms {
		e := newTestEngine(alg)
		a := NewVar(e, 0)
		b := NewVar(e, 0)
		const workers, per = 6, 300
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < per; i++ {
					add := func(tx *Tx) {
						// The invariant a == b holds transactionally;
						// a torn snapshot shows up as a skewed pair.
						av, bv := Read(tx, a), Read(tx, b)
						if av != bv {
							t.Errorf("torn snapshot: a=%d b=%d", av, bv)
						}
						Write(tx, a, av+1)
						Write(tx, b, bv+1)
					}
					if i%13 == 0 {
						if err := e.AtomicRelaxed(add); err != nil {
							t.Errorf("relaxed: %v", err)
						}
					} else if err := e.Atomic(add); err != nil {
						t.Errorf("atomic: %v", err)
					}
				}
			}()
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		want := workers * per
		e.MustAtomic(func(tx *Tx) {
			if av, bv := Read(tx, a), Read(tx, b); av != want || bv != want {
				t.Errorf("%s: a=%d b=%d after %d increments", alg, av, bv, want)
			}
		})
		if top := e.Now(); top < uint64(want) {
			t.Errorf("%s: Now() = %d below %d commits", alg, top, want)
		}
	}
}

func TestConcurrentCounter(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		v := NewVar(e, 0)
		const goroutines, iters = 8, 300
		var wg sync.WaitGroup
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					e.MustAtomic(func(tx *Tx) {
						Write(tx, v, Read(tx, v)+1)
					})
				}
			}()
		}
		wg.Wait()
		if got := v.LoadDirect(); got != goroutines*iters {
			t.Fatalf("counter = %d, want %d", got, goroutines*iters)
		}
	})
}

func TestConcurrentCounterTinyOrecTable(t *testing.T) {
	// One orec for everything: maximal false conflicts, still correct.
	e := NewEngine(Config{Algorithm: AlgWriteThrough, OrecCount: 1})
	a := NewVar(e, 0)
	b := NewVar(e, 0)
	const goroutines, iters = 4, 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				e.MustAtomic(func(tx *Tx) {
					if g%2 == 0 {
						Write(tx, a, Read(tx, a)+1)
					} else {
						Write(tx, b, Read(tx, b)+1)
					}
				})
			}
		}()
	}
	wg.Wait()
	if got := a.LoadDirect() + b.LoadDirect(); got != goroutines*iters {
		t.Fatalf("a+b = %d, want %d", got, goroutines*iters)
	}
}

// TestBankTransferInvariant is the classic atomicity check: concurrent
// transfers never change the total.
func TestBankTransferInvariant(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		const accounts = 8
		const initial = 1000
		accts := make([]*Var[int], accounts)
		for i := range accts {
			accts[i] = NewVar(e, initial)
		}
		var transfers, auditors sync.WaitGroup
		for g := 0; g < 4; g++ {
			g := g
			transfers.Add(1)
			go func() {
				defer transfers.Done()
				rng := uint64(g*2 + 1)
				next := func(n int) int {
					rng ^= rng << 13
					rng ^= rng >> 7
					rng ^= rng << 17
					return int(rng % uint64(n))
				}
				for i := 0; i < 400; i++ {
					from, to := next(accounts), next(accounts)
					amt := next(50)
					e.MustAtomic(func(tx *Tx) {
						f := Read(tx, accts[from])
						if f < amt {
							return
						}
						Write(tx, accts[from], f-amt)
						Write(tx, accts[to], Read(tx, accts[to])+amt)
					})
				}
			}()
		}
		// Concurrent auditors: the total must be invariant in every
		// snapshot, not just at the end.
		stop := make(chan struct{})
		var bad atomic.Int64
		for r := 0; r < 2; r++ {
			auditors.Add(1)
			go func() {
				defer auditors.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					sum := 0
					e.MustAtomic(func(tx *Tx) {
						sum = 0
						for _, a := range accts {
							sum += Read(tx, a)
						}
					})
					if sum != accounts*initial {
						bad.Add(1)
					}
				}
			}()
		}
		transfers.Wait()
		close(stop)
		auditors.Wait()
		if bad.Load() != 0 {
			t.Fatalf("%d inconsistent audit snapshots", bad.Load())
		}
		sum := 0
		for _, a := range accts {
			sum += a.LoadDirect()
		}
		if sum != accounts*initial {
			t.Fatalf("total = %d, want %d", sum, accounts*initial)
		}
	})
}

// TestSnapshotConsistency: a writer maintains x+y == 0; readers must never
// observe a violated invariant.
func TestSnapshotConsistency(t *testing.T) {
	forEachAlg(t, func(t *testing.T, e *Engine) {
		x := NewVar(e, 0)
		y := NewVar(e, 0)
		stop := make(chan struct{})
		var wg sync.WaitGroup
		var violations atomic.Int64
		for r := 0; r < 3; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					sum := 0
					e.MustAtomic(func(tx *Tx) {
						sum = Read(tx, x) + Read(tx, y)
					})
					if sum != 0 {
						violations.Add(1)
					}
				}
			}()
		}
		for i := 1; i <= 500; i++ {
			d := i % 17
			e.MustAtomic(func(tx *Tx) {
				Write(tx, x, Read(tx, x)+d)
				Write(tx, y, Read(tx, y)-d)
			})
		}
		close(stop)
		wg.Wait()
		if v := violations.Load(); v != 0 {
			t.Fatalf("%d torn snapshots observed", v)
		}
	})
}

// Property: applying a random op sequence transactionally (one op per
// transaction) matches a plain sequential model.
func TestQuickSequentialEquivalence(t *testing.T) {
	type op struct {
		Idx  uint8
		Add  int8
		Read bool
	}
	forEachAlg(t, func(t *testing.T, e *Engine) {
		f := func(ops []op) bool {
			const n = 4
			vars := make([]*Var[int], n)
			model := make([]int, n)
			for i := range vars {
				vars[i] = NewVar(e, 0)
			}
			for _, o := range ops {
				i := int(o.Idx) % n
				if o.Read {
					var got int
					e.MustAtomic(func(tx *Tx) { got = Read(tx, vars[i]) })
					if got != model[i] {
						return false
					}
				} else {
					e.MustAtomic(func(tx *Tx) {
						Write(tx, vars[i], Read(tx, vars[i])+int(o.Add))
					})
					model[i] += int(o.Add)
				}
			}
			for i := range vars {
				if vars[i].LoadDirect() != model[i] {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
			t.Fatal(err)
		}
	})
}

// TestStatsCommitCount: every attempt ends in exactly one commit or one
// abort, so Commits+Aborts counts the attempts made.
func TestStatsCommitCount(t *testing.T) {
	e := newTestEngine(AlgWriteThrough)
	v := NewVar(e, 0)
	attempts := 0
	for i := 0; i < 10; i++ {
		e.MustAtomic(func(tx *Tx) {
			attempts++
			Write(tx, v, i)
			if i%2 == 1 && tx.Attempt() == 0 {
				tx.Restart()
			}
		})
	}
	if got := e.Stats.Commits.Load(); got != 10 {
		t.Fatalf("Commits = %d, want 10", got)
	}
	if got := e.Stats.Commits.Load() + e.Stats.Aborts.Load(); got != int64(attempts) || attempts != 15 {
		t.Fatalf("Commits+Aborts = %d over %d attempts, want 15 each", got, attempts)
	}
}

func TestConfigDefaults(t *testing.T) {
	e := NewEngine(Config{})
	cfg := e.Config()
	if cfg.OrecCount != 1<<14 {
		t.Fatalf("OrecCount = %d", cfg.OrecCount)
	}
	if cfg.MaxRetries != 16 {
		t.Fatalf("MaxRetries = %d", cfg.MaxRetries)
	}
	if cfg.Name != "ml_wt" {
		t.Fatalf("Name = %q", cfg.Name)
	}
	h := NewEngine(Config{Algorithm: AlgHTM})
	if h.Config().MaxRetries != 6 {
		t.Fatalf("HTM MaxRetries = %d", h.Config().MaxRetries)
	}
	if h.Config().HTMCapacity != 64 {
		t.Fatalf("HTMCapacity = %d", h.Config().HTMCapacity)
	}
}

func TestOrecCountRoundsToPowerOfTwo(t *testing.T) {
	e := NewEngine(Config{OrecCount: 1000})
	if got := e.Config().OrecCount; got != 1024 {
		t.Fatalf("OrecCount = %d, want 1024", got)
	}
}
