package main

import (
	"sync/atomic"
	"testing"

	"repro/internal/facility"
	"repro/internal/oracle"
	"repro/internal/stm"
)

// TestBlackboxTaskWrapper drives the blackbox harness's task wrapper
// through Submit, SubmitBatch and Drain on every system: the oracle must
// see each task submitted and completed exactly once, and a wrapper that
// skips one TaskCompleted must leave that task pending.
func TestBlackboxTaskWrapper(t *testing.T) {
	cases := []struct {
		name string
		kind facility.Kind
		alg  stm.Algorithm
	}{
		{"pthreadCV", facility.LockPthread, stm.AlgWriteThrough},
		{"TMCV-wt", facility.LockTM, stm.AlgWriteThrough},
		{"TMCV-htm", facility.LockTM, stm.AlgHTM},
		{"TMParsec-wt", facility.Txn, stm.AlgWriteThrough},
		{"TMParsec-htm", facility.Txn, stm.AlgHTM},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tk := &facility.Toolkit{Kind: c.kind, Engine: stm.NewEngine(stm.Config{Algorithm: c.alg})}
			orc := oracle.New()
			tw := &taskWrapper{orc: orc, key: "bb.taskq"}
			tq := facility.NewTaskQueue(tk, 4)
			defer tq.Close()

			const single, batch = 40, 24
			var ran atomic.Int64
			task := func() { ran.Add(1) }
			for i := 0; i < single; i++ {
				tq.Submit(tw.wrap(task))
			}
			tasks := make([]func(), batch)
			for i := range tasks {
				tasks[i] = tw.wrap(task)
			}
			tq.SubmitBatch(tasks)
			tq.Drain()
			if n := ran.Load(); n != single+batch {
				t.Fatalf("%d tasks ran, want %d", n, single+batch)
			}
			if !orc.TaskQueueDrained(tw.key) {
				t.Fatalf("drain not clean: %v", orc.Divergences())
			}
			if ds := orc.Divergences(); len(ds) != 0 {
				t.Fatalf("divergences on a clean run: %v", ds)
			}
			if tot := orc.Totals(); tot.TasksSubmitted != single+batch || tot.TasksCompleted != single+batch {
				t.Fatalf("oracle totals %+v, want %d submitted and completed", tot, single+batch)
			}

			// A wrapper that records the submission but skips the
			// completion: the task runs, and the oracle must still
			// report it pending after the drain.
			_ = tw.wrap(task)
			tq.Submit(task)
			tq.Drain()
			if orc.TaskQueueDrained(tw.key) {
				t.Fatal("a skipped TaskCompleted was not reported")
			}
			ds := orc.Divergences()
			if len(ds) != 1 || ds[0].Kind != "drain.incomplete" {
				t.Fatalf("want one drain.incomplete divergence, got %v", ds)
			}
			if p := orc.Totals().PendingTasks; p != 1 {
				t.Fatalf("%d pending tasks, want 1", p)
			}
		})
	}
}
