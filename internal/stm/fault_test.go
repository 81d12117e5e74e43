package stm

import (
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// TestStormFallsBackAfterMaxRetries pins the contention policy under a
// sustained abort storm: every optimistic commit is injected away, so
// each transaction spends exactly MaxRetries optimistic attempts, backs
// off between them, and then commits through the (never-injected)
// serial fallback. The budget never shrinks, however long the storm.
func TestStormFallsBackAfterMaxRetries(t *testing.T) {
	e := NewEngine(Config{})
	tr := obs.NewTracer(1 << 12)
	tr.Enable()
	e.SetTracer(tr)
	in := fault.New(0xABADCAFE).Set(fault.PreCommit, fault.Rule{Rate: 1.0, Action: fault.ActAbort})
	e.SetFault(in)
	v := NewVar(e, 0)

	in.Arm()
	const txns = 64
	for i := 0; i < txns; i++ {
		e.MustAtomic(func(tx *Tx) { Write(tx, v, Read(tx, v)+1) })
	}
	in.Disarm()

	retries := int64(e.Config().MaxRetries)
	if got := readVar(t, e, v); got != txns {
		t.Fatalf("forward progress lost under storm: counter = %d, want %d", got, txns)
	}
	s := &e.Stats
	if got := s.SerialFallback.Load(); got != txns {
		t.Errorf("SerialFallback = %d, want %d", got, txns)
	}
	if got := s.SerialCommits.Load(); got != txns {
		t.Errorf("SerialCommits = %d, want %d", got, txns)
	}
	if got := s.Aborts.Load(); got != txns*retries {
		t.Errorf("Aborts = %d, want %d (MaxRetries %d per transaction)", got, txns*retries, retries)
	}
	injects, serial := 0, 0
	for _, ev := range tr.Events() {
		switch ev.Type {
		case obs.EvFaultInject:
			injects++
			if ev.A != int64(fault.PreCommit) {
				t.Fatalf("fault.inject at unexpected point %d", ev.A)
			}
		case obs.EvTxnSerial:
			// A is the 1-based attempt number: MaxRetries optimistic
			// attempts, then the serial one.
			serial++
			if ev.A != retries+1 {
				t.Errorf("txn.serial span A = %d, want MaxRetries+1 = %d", ev.A, retries+1)
			}
		}
	}
	if injects == 0 {
		t.Fatal("no fault.inject events on the trace")
	}
	if serial != txns {
		t.Errorf("%d txn.serial spans on the trace, want %d", serial, txns)
	}
}

// TestFaultHooksByAlgorithm exercises each injected abort path: TxBegin
// capacity aborts, encounter-time (write-through) and commit-time
// (HTM's redo log) orec-acquire conflicts. Every engine must keep forward
// progress via the (never-injected) serial fallback.
func TestFaultHooksByAlgorithm(t *testing.T) {
	cases := []struct {
		name  string
		alg   Algorithm
		point fault.Point
		act   fault.Action
		check func(t *testing.T, s *TMStats)
	}{
		{"txbegin-capacity", AlgHTM, fault.TxBegin, fault.ActCapacity,
			func(t *testing.T, s *TMStats) {
				if s.CapacityAborts.Load() == 0 {
					t.Error("no capacity aborts recorded")
				}
			}},
		{"orec-writethrough", AlgWriteThrough, fault.OrecAcquire, fault.ActAbort,
			func(t *testing.T, s *TMStats) {
				if s.ConflictAborts.Load() == 0 {
					t.Error("no conflict aborts recorded")
				}
			}},
		{"orec-htm", AlgHTM, fault.OrecAcquire, fault.ActAbort,
			func(t *testing.T, s *TMStats) {
				if s.ConflictAborts.Load() == 0 {
					t.Error("no conflict aborts recorded")
				}
			}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := NewEngine(Config{Algorithm: tc.alg})
			in := fault.New(1).Set(tc.point, fault.Rule{Rate: 1.0, Action: tc.act})
			e.SetFault(in)
			in.Arm()
			v := NewVar(e, 0)
			const txns = 20
			for i := 0; i < txns; i++ {
				e.MustAtomic(func(tx *Tx) { Write(tx, v, Read(tx, v)+1) })
			}
			in.Disarm()
			if got := readVar(t, e, v); got != txns {
				t.Fatalf("counter = %d, want %d", got, txns)
			}
			if in.Fired(tc.point) == 0 {
				t.Fatal("hook never fired")
			}
			tc.check(t, &e.Stats)
		})
	}
}

// TestFaultDelayHook: a Delay decision stalls the hook point but
// changes no outcome.
func TestFaultDelayHook(t *testing.T) {
	e := NewEngine(Config{})
	in := fault.New(3).Set(fault.PreCommit, fault.Rule{Rate: 1.0, Action: fault.ActDelay, Delay: 100 * time.Microsecond})
	e.SetFault(in)
	in.Arm()
	v := NewVar(e, 0)
	start := time.Now()
	e.MustAtomic(func(tx *Tx) { Write(tx, v, 42) })
	if elapsed := time.Since(start); elapsed < 50*time.Microsecond {
		t.Fatalf("delay hook did not stall: %v", elapsed)
	}
	if e.Stats.Aborts.Load() != 0 {
		t.Fatalf("delay decision caused %d aborts", e.Stats.Aborts.Load())
	}
	if got := readVar(t, e, v); got != 42 {
		t.Fatalf("value = %d, want 42", got)
	}
}

// TestSerialNeverInjected: an irrevocable (relaxed) transaction must
// not consume or fire injector decisions.
func TestSerialNeverInjected(t *testing.T) {
	e := NewEngine(Config{})
	in := fault.New(9).SetAll(fault.Rule{Rate: 1.0, Action: fault.ActAbort})
	e.SetFault(in)
	in.Arm()
	v := NewVar(e, 0)
	if err := e.AtomicRelaxed(func(tx *Tx) { Write(tx, v, 7) }); err != nil {
		t.Fatalf("AtomicRelaxed: %v", err)
	}
	in.Disarm()
	var drawn uint64
	for p := fault.Point(0); p < fault.NumPoints; p++ {
		drawn += in.Drawn(p)
	}
	if drawn != 0 {
		t.Fatalf("serial transaction drew %d fault decisions", drawn)
	}
	if got := readVar(t, e, v); got != 7 {
		t.Fatalf("value = %d, want 7", got)
	}
}

func readVar(t *testing.T, e *Engine, v *Var[int]) int {
	t.Helper()
	var got int
	if err := e.AtomicRead(func(tx *Tx) { got = Read(tx, v) }); err != nil {
		t.Fatalf("AtomicRead: %v", err)
	}
	return got
}
