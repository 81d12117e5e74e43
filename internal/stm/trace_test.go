package stm

import (
	"errors"
	"testing"

	"repro/internal/obs"
)

func countByType(evs []obs.Event) map[obs.EventType]int {
	m := make(map[obs.EventType]int)
	for _, ev := range evs {
		m[ev.Type]++
	}
	return m
}

// A committed transaction's buffered events (start + user Trace calls)
// surface, followed by the commit span.
func TestTraceCommittedEventsSurface(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgWriteThrough})
	tr := obs.NewTracer(1024)
	e.SetTracer(tr)
	if e.Tracer() != tr {
		t.Fatal("Tracer() did not return the attached tracer")
	}
	tr.Enable()

	v := NewVar(e, 0)
	e.MustAtomic(func(tx *Tx) {
		tx.Trace(obs.EvCVEnqueue, 42, 0)
		Write(tx, v, 1)
	})
	tr.Disable()

	got := countByType(tr.Events())
	if got[obs.EvTxnStart] != 1 || got[obs.EvTxnCommit] != 1 || got[obs.EvCVEnqueue] != 1 {
		t.Fatalf("event counts = %v, want one each of start/commit/enqueue", got)
	}
	for _, ev := range tr.Events() {
		if ev.Type == obs.EvTxnCommit && ev.A != 1 {
			t.Errorf("commit span attempts = %d, want 1", ev.A)
		}
	}
}

// An aborted attempt leaves ONLY its terminal txn.abort event: the
// buffered start and user events are discarded, mirroring the paper's
// SEMPOST deferral (nothing an aborted attempt did is observable).
func TestTraceAbortDiscardsBufferedEvents(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgWriteThrough})
	tr := obs.NewTracer(1024)
	e.SetTracer(tr)
	tr.Enable()

	sentinel := errors.New("cancelled")
	err := e.Atomic(func(tx *Tx) {
		tx.Trace(obs.EvCVEnqueue, 7, 0) // must never surface
		tx.Cancel(sentinel)
	})
	tr.Disable()
	if !errors.Is(err, sentinel) {
		t.Fatalf("Atomic err = %v", err)
	}

	got := countByType(tr.Events())
	if got[obs.EvCVEnqueue] != 0 || got[obs.EvTxnStart] != 0 {
		t.Fatalf("aborted attempt leaked buffered events: %v", got)
	}
	if got[obs.EvTxnAbort] != 1 {
		t.Fatalf("event counts = %v, want exactly one txn.abort", got)
	}
	for _, ev := range tr.Events() {
		if ev.Type == obs.EvTxnAbort && ev.A != obs.AbortCancel {
			t.Errorf("abort reason = %s, want cancel", obs.AbortReasonName(ev.A))
		}
	}
}

// CommitEarly flushes the attempt's buffered events at the punctuation
// point; events traced after it are emitted directly (the code after an
// early commit runs exactly once).
func TestTraceCommitEarlyFlushes(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgWriteThrough})
	tr := obs.NewTracer(1024)
	e.SetTracer(tr)
	tr.Enable()

	v := NewVar(e, 0)
	e.MustAtomic(func(tx *Tx) {
		Write(tx, v, 1)
		tx.Trace(obs.EvCVEnqueue, 1, 0)
		tx.CommitEarly()
		tx.Trace(obs.EvCVWake, 1, 0) // post-commit: direct emission
	})
	tr.Disable()

	got := countByType(tr.Events())
	if got[obs.EvTxnEarlyCommit] != 1 || got[obs.EvCVEnqueue] != 1 || got[obs.EvCVWake] != 1 {
		t.Fatalf("event counts = %v", got)
	}
}

// TraceFlow follows Trace's commit-deferral exactly: a committed
// attempt's flow events surface carrying their wakeID, an aborted
// attempt's are discarded, and after CommitEarly the emission is direct
// (the WaitTx resume path).
func TestTraceFlowCommitDeferredAndAbortDiscarded(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgWriteThrough})
	tr := obs.NewTracer(1024)
	e.SetTracer(tr)
	tr.Enable()

	sentinel := errors.New("cancelled")
	err := e.Atomic(func(tx *Tx) {
		tx.TraceFlow(obs.EvWakeTxn, 55, 2, 0) // must never surface
		tx.Cancel(sentinel)
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("Atomic err = %v", err)
	}
	if got := countByType(tr.Events()); got[obs.EvWakeTxn] != 0 {
		t.Fatalf("aborted attempt leaked flow events: %v", got)
	}

	v := NewVar(e, 0)
	e.MustAtomic(func(tx *Tx) {
		Write(tx, v, 1)
		tx.TraceFlow(obs.EvWakeTxn, 55, 2, 0) // buffered, flushed on commit
		tx.CommitEarly()
		tx.TraceFlow(obs.EvWakeTxn, 56, 3, 0) // post-commit: direct emission
	})
	tr.Disable()

	flows := map[uint64]int{}
	for _, ev := range tr.Events() {
		if ev.Type == obs.EvWakeTxn {
			flows[ev.Flow]++
		}
	}
	if flows[55] != 1 || flows[56] != 1 {
		t.Fatalf("flow event counts = %v, want one each of flows 55 and 56", flows)
	}
}

// The commit-latency histogram populates on commits only — an aborted
// attempt adds nothing — and Histograms() exposes it as commit_ns. While
// a tracer is armed every attempt is timed, so the count is exact.
// Disarmed, one attempt in commitSampleEvery is on average: each pooled
// Tx starts at a random phase below commitSampleEvery and then leaves
// gaps of at least commitSampleEvery-commitSampleJitter attempts, so
// however sync.Pool spreads the attempts over Txs, the count is at most
// attempts/(commitSampleEvery-commitSampleJitter) plus the number of Txs
// the pool created (each minted one id from txid), and 1000 attempts
// leave at least one.
func TestTMStatsHistogramsPopulate(t *testing.T) {
	run := func(e *Engine, commits int) obs.HistogramSnapshot {
		v := NewVar(e, 0)
		for i := 0; i < commits; i++ {
			e.MustAtomic(func(tx *Tx) { Write(tx, v, i) })
		}
		sentinel := errors.New("x")
		_ = e.Atomic(func(tx *Tx) { tx.Cancel(sentinel) })
		h := e.Stats.Histograms()["commit_ns"]
		if h.Count > 0 && len(h.Buckets) == 0 {
			t.Error("commit_ns has a count but no buckets")
		}
		return h
	}

	t.Run("traced", func(t *testing.T) {
		e := NewEngine(Config{Algorithm: AlgWriteThrough})
		tr := obs.NewTracer(1 << 10)
		e.SetTracer(tr)
		tr.Enable()
		if h := run(e, 10); h.Count != 10 {
			t.Errorf("commit_ns count = %d, want 10", h.Count)
		}
	})

	t.Run("disarmed", func(t *testing.T) {
		e := NewEngine(Config{Algorithm: AlgWriteThrough})
		const commits = 1000
		h := run(e, commits)
		attempts := int64(commits + 1) // the cancelled attempt may draw a sample too
		created := int64(e.txid.Load())
		const minGap = commitSampleEvery - commitSampleJitter
		if h.Count < 1 || minGap*h.Count > attempts+minGap*created {
			t.Errorf("commit_ns count = %d after %d attempts on %d pooled Txs, want 1..%d/%d+%d",
				h.Count, attempts, created, attempts, minGap, created)
		}
	})
}

// Handlers registered via OnCommit produce a txn.handlers event, emitted
// after the commit (direct emission: handlers run post-commit).
func TestTraceHandlerRunEvent(t *testing.T) {
	e := NewEngine(Config{Algorithm: AlgWriteThrough})
	tr := obs.NewTracer(1024)
	e.SetTracer(tr)
	tr.Enable()

	ran := false
	e.MustAtomic(func(tx *Tx) {
		tx.OnCommit(func() { ran = true })
	})
	tr.Disable()
	if !ran {
		t.Fatal("handler did not run")
	}
	got := countByType(tr.Events())
	if got[obs.EvHandlerRun] != 1 {
		t.Fatalf("event counts = %v, want one txn.handlers", got)
	}
}
