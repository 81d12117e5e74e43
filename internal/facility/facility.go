// Package facility provides the condition-synchronization building blocks
// the PARSEC benchmarks are made of — bounded queues, barriers, dynamic
// task queues, persistent thread pools, reorder buffers, frame-progress
// synchronization and pipelines — in the three flavours the paper's
// evaluation compares:
//
//   - Kind LockPthread: mutex-protected data, baseline OS-style condvars
//     (internal/pthreadcv). The paper's Parsec+pthreadCondVar.
//   - Kind LockTM: the same mutex-protected data and the same call sites,
//     but the condvar underneath is the transaction-friendly one
//     (internal/core, used through its pthread-compatible LockCond face).
//     The paper's Parsec+TMCondVar.
//   - Kind Txn: locks replaced by transactions, waits manually refactored
//     into WaitTx re-check loops (the paper's Section 5.3 methodology).
//     The paper's TMParsec+TMCondVar.
//
// A Toolkit captures the flavour plus the TM engine and hands out
// facility instances; workloads are written once against the interfaces
// and run under all three systems.
package facility

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/obs/registry"
	"repro/internal/pthreadcv"
	"repro/internal/stm"
	"repro/internal/syncx"
)

// Cond is the pthread-shaped condition-variable interface implemented both
// by the baseline (pthreadcv.Cond) and by the transaction-friendly condvar
// (core.LockCond).
type Cond interface {
	Wait(m *syncx.Mutex)
	Signal()
	// SignalN wakes up to n waiters. The TM condvar dequeues them as one
	// batch (a single transaction, one commit handler); the baseline
	// signals serially.
	SignalN(n int)
	Broadcast()
	// Waiters reports how many threads are currently enqueued — the
	// quiesce hook the black-box harness uses to assert that a drained
	// workload leaves zero parked waiters behind.
	Waiters() int
}

// Static interface-satisfaction checks.
var (
	_ Cond = (*pthreadcv.Cond)(nil)
	_ Cond = (*core.LockCond)(nil)
)

// Kind selects the synchronization system a Toolkit builds.
type Kind int

const (
	// LockPthread is locks + baseline OS-style condition variables.
	LockPthread Kind = iota
	// LockTM is locks + transaction-friendly condition variables.
	LockTM
	// Txn is transactions + transaction-friendly condition variables.
	Txn
)

func (k Kind) String() string {
	switch k {
	case LockPthread:
		return "Parsec+pthreadCondVar"
	case LockTM:
		return "Parsec+TMCondVar"
	case Txn:
		return "TMParsec+TMCondVar"
	default:
		return "unknown"
	}
}

// Short returns a compact label for tables.
func (k Kind) Short() string {
	switch k {
	case LockPthread:
		return "pthreadCV"
	case LockTM:
		return "TMCV"
	case Txn:
		return "TMParsec"
	default:
		return "?"
	}
}

// Kinds lists all three systems in the paper's presentation order.
var Kinds = []Kind{LockPthread, LockTM, Txn}

// Toolkit builds facilities of one Kind. Engine is required for LockTM
// and Txn (the TM condvar's internal transactions run on it); Spurious
// optionally injects spurious wake-ups into LockPthread condvars.
type Toolkit struct {
	Kind     Kind
	Engine   *stm.Engine
	Spurious *pthreadcv.SpuriousInjector

	// CVStats, when non-nil, is attached to every TM condvar the toolkit
	// hands out, aggregating wait/notify activity and wait-latency
	// histograms across all of a workload's condvars.
	CVStats *core.CVStats

	// Introspect, when non-nil, registers every TM condvar the toolkit
	// hands out as a live source (queue-depth gauge + wait-chain dump)
	// under "<IntrospectPrefix>/cv<seq>". Construction-order sequence
	// numbers repeat across identically-shaped runs, so per-trial
	// re-registration upserts the previous trial's sources instead of
	// growing the registry without bound (DESIGN.md §10).
	Introspect       *registry.Registry
	IntrospectPrefix string

	// Label, when non-empty, prefixes every attribution name this
	// toolkit assigns ("<Label>.taskq.items" instead of "taskq.items"),
	// separating same-shaped facilities of concurrent workloads in
	// conflict tables (DESIGN.md §13).
	Label string

	// Journal, when non-nil, receives the completion journal of every
	// task queue this toolkit builds (see Journal); keys are the
	// facility kind under the Label prefix ("taskq" → "<Label>.taskq").
	Journal Journal

	cvSeq atomic.Uint64

	// Condvars handed out by this toolkit, tracked for Waiters() — the
	// drain/quiesce check of the black-box harness (DESIGN.md §14).
	trackMu  syncx.Mutex
	trackCVs []*core.CondVar
	trackPCs []*pthreadcv.Cond
}

// label applies the toolkit's Label prefix to an attribution name.
func (tk *Toolkit) label(name string) string {
	if tk.Label == "" {
		return name
	}
	return tk.Label + "." + name
}

// NewCond returns a condition variable of the toolkit's flavour for
// lock-based use. Valid for LockPthread and LockTM; Txn facilities use
// core.CondVar directly.
func (tk *Toolkit) NewCond() Cond {
	switch tk.Kind {
	case LockPthread:
		c := pthreadcv.New(tk.Spurious)
		tk.trackMu.Lock()
		tk.trackPCs = append(tk.trackPCs, c)
		tk.trackMu.Unlock()
		return c
	case LockTM:
		return core.NewLockCond(tk.NewCondVar())
	default:
		panic("facility: NewCond on a Txn toolkit; use NewCondVar")
	}
}

// NewCondVar returns a raw transaction-friendly condvar (LockTM and Txn).
func (tk *Toolkit) NewCondVar() *core.CondVar {
	if tk.Engine == nil {
		panic("facility: NewCondVar requires an engine")
	}
	cv := core.New(tk.Engine, core.Options{})
	if tk.CVStats != nil {
		cv.SetStats(tk.CVStats)
	}
	if tk.Introspect != nil {
		seq := tk.cvSeq.Add(1)
		cv.RegisterIntrospect(tk.Introspect,
			fmt.Sprintf("%s/cv%d", tk.IntrospectPrefix, seq))
	}
	tk.trackMu.Lock()
	tk.trackCVs = append(tk.trackCVs, cv)
	tk.trackMu.Unlock()
	return cv
}

// Waiters sums the parked-waiter counts of every condvar this toolkit has
// handed out — the quiesce hook: after a workload has drained and closed
// its facilities, a non-zero result means a waiter was stranded (a lost
// wake-up or a leaked park). Counts are racy snapshots, so only call this
// once the workload is quiescent.
func (tk *Toolkit) Waiters() int {
	tk.trackMu.Lock()
	cvs := tk.trackCVs
	pcs := tk.trackPCs
	tk.trackMu.Unlock()
	n := 0
	for _, cv := range cvs {
		n += cv.Len()
	}
	for _, c := range pcs {
		n += c.Waiters()
	}
	return n
}

// NewCondNamed is NewCond with an attribution name for the TM-backed
// flavour; LockPthread condvars have no attribution surface, so the
// name is ignored there.
func (tk *Toolkit) NewCondNamed(name string) Cond {
	if tk.Kind == LockTM {
		return core.NewLockCond(tk.NewCondVarNamed(name))
	}
	return tk.NewCond()
}

// NewCondVarNamed is NewCondVar plus CondVar.SetName under the
// toolkit's Label prefix, so conflict tables and traces show
// "taskq.workAvail" instead of a bare creation site.
func (tk *Toolkit) NewCondVarNamed(name string) *core.CondVar {
	return tk.NewCondVar().SetName(tk.label(name))
}

// newVarNamed names a facility's state Var under the toolkit's Label
// prefix (helper for the facility constructors).
func newVarNamed[T any](tk *Toolkit, name string, init T) *stm.Var[T] {
	return stm.NewVarNamed(tk.Engine, tk.label(name), init)
}

// Transactional reports whether shared data is protected by transactions
// (Kind Txn) rather than locks.
func (tk *Toolkit) Transactional() bool { return tk.Kind == Txn }

// awaitCtx runs wait in a background goroutine and returns nil once it
// completes, or ctx.Err() if the context is cancelled first. The
// background wait keeps running after a cancellation, so a drain that
// was already initiated always runs to completion — cancellation only
// stops the caller from waiting for it, it never strands the workers
// mid-shutdown.
func awaitCtx(ctx context.Context, wait func()) error {
	done := make(chan struct{})
	go func() {
		wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
