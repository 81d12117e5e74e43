package facility

import (
	"context"

	"repro/internal/core"
	"repro/internal/stm"
	"repro/internal/syncx"
)

// TaskQueue is the facesim/raytrace-style dynamic, load-balanced task
// queue: producers Submit work items, a fixed set of worker goroutines
// (started by the constructor) execute them, and the master calls Drain to
// block until every submitted task has completed. Two condition variables
// are involved, exactly as in facesim's taskQ: "work available" for the
// workers and "all complete" for the master.
type TaskQueue interface {
	// Submit enqueues a task. Must not be called after Close.
	Submit(task func())
	// SubmitBatch enqueues several tasks at once — one critical section
	// (or one transaction) and one paced wake batch of up to len(tasks)
	// workers, instead of len(tasks) separate submit/signal rounds. Must
	// not be called after Close.
	SubmitBatch(tasks []func())
	// Drain blocks until every previously submitted task has finished
	// executing.
	Drain()
	// Pending reports how many submitted tasks have not yet finished —
	// the drain/quiesce hook: once submitters have stopped and Drain
	// returned, a non-zero count means work was lost.
	Pending() int
	// Close stops the workers after the queue empties and waits for them
	// to exit.
	Close()
	// CloseCtx stops the workers like Close but abandons the wait when
	// ctx is cancelled, returning ctx.Err(). The close itself is already
	// committed by then: workers finish the remaining tasks and exit in
	// the background.
	CloseCtx(ctx context.Context) error
}

// NewTaskQueue builds a task queue of the toolkit's flavour with the given
// number of worker goroutines.
func NewTaskQueue(tk *Toolkit, workers int) TaskQueue {
	if workers <= 0 {
		panic("facility: task queue needs at least one worker")
	}
	if tk.Transactional() {
		return newTxnTaskQueue(tk, workers)
	}
	return newLockTaskQueue(tk, workers)
}

// lockTaskQueue: mutex + workAvail/idle condvars.
type lockTaskQueue struct {
	mu        syncx.Mutex
	workAvail Cond // workers wait here
	idle      Cond // Drain/Close wait here
	tasks     []func()
	pending   int // submitted but not yet finished
	closed    bool
	workers   int
	exited    int
}

func newLockTaskQueue(tk *Toolkit, workers int) *lockTaskQueue {
	q := &lockTaskQueue{
		workAvail: tk.NewCond(),
		idle:      tk.NewCond(),
		workers:   workers,
	}
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

func (q *lockTaskQueue) Submit(task func()) {
	q.mu.Lock()
	q.tasks = append(q.tasks, task)
	q.pending++
	q.workAvail.Signal()
	q.mu.Unlock()
}

func (q *lockTaskQueue) SubmitBatch(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	q.mu.Lock()
	q.tasks = append(q.tasks, tasks...)
	q.pending += len(tasks)
	q.workAvail.SignalN(len(tasks))
	q.mu.Unlock()
}

func (q *lockTaskQueue) Pending() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.pending
}

func (q *lockTaskQueue) worker() {
	for {
		q.mu.Lock()
		for len(q.tasks) == 0 && !q.closed {
			q.workAvail.Wait(&q.mu)
		}
		if len(q.tasks) == 0 && q.closed {
			q.exited++
			q.idle.Broadcast()
			q.mu.Unlock()
			return
		}
		task := q.tasks[len(q.tasks)-1] // LIFO pop: cache-warm, like facesim
		q.tasks = q.tasks[:len(q.tasks)-1]
		q.mu.Unlock()

		task()

		q.mu.Lock()
		q.pending--
		if q.pending == 0 {
			q.idle.Broadcast()
		}
		q.mu.Unlock()
	}
}

func (q *lockTaskQueue) Drain() {
	q.mu.Lock()
	for q.pending > 0 {
		q.idle.Wait(&q.mu)
	}
	q.mu.Unlock()
}

func (q *lockTaskQueue) Close() {
	q.initiateClose()
	q.awaitExited()
}

func (q *lockTaskQueue) CloseCtx(ctx context.Context) error {
	q.initiateClose()
	return awaitCtx(ctx, q.awaitExited)
}

func (q *lockTaskQueue) initiateClose() {
	q.mu.Lock()
	if !q.closed {
		q.closed = true
		q.workAvail.Broadcast()
	}
	q.mu.Unlock()
}

func (q *lockTaskQueue) awaitExited() {
	q.mu.Lock()
	for q.exited < q.workers {
		q.idle.Wait(&q.mu)
	}
	q.mu.Unlock()
}

// txnTaskQueue: the same structure with transactional state. The task
// list lives in a Var as an immutable slice (copy-on-write), which keeps
// transactional snapshots meaningful.
type txnTaskQueue struct {
	e         *stm.Engine
	tasks     *stm.Var[[]func()]
	pending   *stm.Var[int]
	closed    *stm.Var[bool]
	exited    *stm.Var[int]
	workAvail *core.CondVar
	idle      *core.CondVar
	workers   int
}

func newTxnTaskQueue(tk *Toolkit, workers int) *txnTaskQueue {
	e := tk.Engine
	q := &txnTaskQueue{
		e:         e,
		tasks:     newVarNamed(tk, "taskq.items", []func(){}),
		pending:   newVarNamed(tk, "taskq.pending", 0),
		closed:    newVarNamed(tk, "taskq.closed", false),
		exited:    newVarNamed(tk, "taskq.exited", 0),
		workAvail: tk.NewCondVarNamed("taskq.workAvail"),
		idle:      tk.NewCondVarNamed("taskq.idle"),
		workers:   workers,
	}
	for i := 0; i < workers; i++ {
		go q.worker()
	}
	return q
}

func (q *txnTaskQueue) Submit(task func()) {
	q.e.MustAtomic(func(tx *stm.Tx) {
		ts := stm.Read(tx, q.tasks)
		nts := make([]func(), len(ts), len(ts)+1)
		copy(nts, ts)
		stm.Write(tx, q.tasks, append(nts, task))
		stm.Write(tx, q.pending, stm.Read(tx, q.pending)+1)
		q.workAvail.NotifyOne(tx)
	})
}

func (q *txnTaskQueue) SubmitBatch(tasks []func()) {
	if len(tasks) == 0 {
		return
	}
	q.e.MustAtomic(func(tx *stm.Tx) {
		ts := stm.Read(tx, q.tasks)
		nts := make([]func(), len(ts), len(ts)+len(tasks))
		copy(nts, ts)
		stm.Write(tx, q.tasks, append(nts, tasks...))
		stm.Write(tx, q.pending, stm.Read(tx, q.pending)+len(tasks))
		// One paced wake batch for the whole submission: up to
		// len(tasks) workers dequeue together at commit.
		q.workAvail.NotifyN(tx, len(tasks))
	})
}

func (q *txnTaskQueue) worker() {
	for {
		var task func()
		st := opRetry
		q.e.MustAtomic(func(tx *stm.Tx) {
			st = opRetry
			task = nil
			ts := stm.Read(tx, q.tasks)
			if len(ts) > 0 {
				task = ts[len(ts)-1]
				stm.Write(tx, q.tasks, ts[:len(ts)-1:len(ts)-1])
				st = opDone
				return
			}
			if stm.Read(tx, q.closed) {
				stm.Write(tx, q.exited, stm.Read(tx, q.exited)+1)
				q.idle.NotifyAll(tx)
				st = opClosed
				return
			}
			q.workAvail.WaitTx(tx)
		})
		switch st {
		case opClosed:
			return
		case opRetry:
			continue
		}

		task() // outside any transaction, as in the lock version

		q.e.MustAtomic(func(tx *stm.Tx) {
			p := stm.Read(tx, q.pending) - 1
			stm.Write(tx, q.pending, p)
			if p == 0 {
				q.idle.NotifyAll(tx)
			}
		})
	}
}

func (q *txnTaskQueue) Pending() int {
	var p int
	q.e.MustAtomic(func(tx *stm.Tx) {
		p = stm.Read(tx, q.pending)
	})
	return p
}

func (q *txnTaskQueue) Drain() {
	for {
		done := false
		q.e.MustAtomic(func(tx *stm.Tx) {
			done = stm.Read(tx, q.pending) == 0
			if !done {
				q.idle.WaitTx(tx)
			}
		})
		if done {
			return
		}
	}
}

func (q *txnTaskQueue) Close() {
	q.initiateClose()
	q.awaitExited()
}

func (q *txnTaskQueue) CloseCtx(ctx context.Context) error {
	q.initiateClose()
	return awaitCtx(ctx, q.awaitExited)
}

func (q *txnTaskQueue) initiateClose() {
	q.e.MustAtomic(func(tx *stm.Tx) {
		if stm.Read(tx, q.closed) {
			return
		}
		stm.Write(tx, q.closed, true)
		q.workAvail.NotifyAll(tx)
	})
}

func (q *txnTaskQueue) awaitExited() {
	for {
		done := false
		q.e.MustAtomic(func(tx *stm.Tx) {
			done = stm.Read(tx, q.exited) == q.workers
			if !done {
				q.idle.WaitTx(tx)
			}
		})
		if done {
			return
		}
	}
}
