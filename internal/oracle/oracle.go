// Package oracle is the expected-state model behind the black-box stress
// harness (cvstress -mode blackbox). The facility layer's own counters
// cannot vouch for the facility layer — a lost wake-up that strands a task
// in the queue also strands the counter that would have reported it — so
// the oracle keeps an independent in-memory shadow of what a live run did:
// which tasks were submitted and which completed, which items entered a
// bounded queue and which came out, how many waiters parked behind a
// condvar generation and how many resumed, which pool workers ran each
// command, and how many parties each barrier round released. Any
// observation the model cannot explain is a Divergence, and the harness
// turns divergences into a non-zero exit.
//
// Two properties shape the implementation (following rockyardkv's
// BLACKBOX.md expected-state pattern, see SNIPPETS.md):
//
//   - Per-key locking. Every facility instance under test is one key, and
//     each key's shadow state has its own mutex, so oracle updates shadow
//     real operations race-freely without serializing the whole workload
//     through one lock.
//
//   - Pending states. The harness records intent before an operation and
//     outcome after it, so an observation that overtakes its counterpart
//     (a consumer reporting an item before the producer reported the Put
//     that published it) is explained by the model instead of flagged.
package oracle

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Item shadow states (see applyLocked).
const (
	itemPutStarted uint8 = 1 // producer announced the Put
	itemPutDone    uint8 = 2 // Put returned true; item is (or was) in the queue
	itemGotEarly   uint8 = 3 // consumer reported the item before the producer's PutDone
)

// op is a task or item event type.
type op uint8

const (
	opTaskSubmit    op = iota + 1 // task became visible to workers
	opTaskComplete                // task body finished
	opItemPutStart                // producer about to Put
	opItemPutDone                 // Put returned true
	opItemPutClosed               // Put returned false (queue closed)
	opItemGot                     // consumer received the item
)

// record is one task or item event. Seq orders it among the run's events
// and names it in a divergence.
type record struct {
	Seq uint64
	Op  op
	Key string
	ID  uint64
}

// Divergence is one observation the expected-state model cannot explain.
type Divergence struct {
	Seq    uint64 `json:"seq"`
	Key    string `json:"key"`
	Kind   string `json:"kind"`
	Detail string `json:"detail"`
}

func (d Divergence) String() string {
	return fmt.Sprintf("divergence: key=%s kind=%s seq=%d detail=%q", d.Key, d.Kind, d.Seq, d.Detail)
}

// condRound tracks one broadcast round's wake accounting.
type condRound struct {
	expected int
	woken    int
}

// poolRun tracks one pool command's occupancy.
type poolRun struct {
	workers int
	ran     map[int]int // worker id → invocations this generation
}

// keyState is the shadow of one facility instance. All fields are guarded
// by mu; the embedding Oracle reaches them through key.
type keyState struct {
	mu sync.Mutex

	// Task-queue model: submitted task ids not yet completed.
	taskPending    map[uint64]bool
	tasksSubmitted uint64
	tasksCompleted uint64

	// Bounded-queue item model: open items by shadow state. Entries are
	// deleted as soon as an item's lifecycle closes, so the map is
	// bounded by the in-flight window, not the run length.
	items    map[uint64]uint8
	itemsPut uint64 // Put returned true
	itemsGot uint64

	// Condvar wake accounting: rounds in flight (pruned at round end).
	condRounds map[uint64]*condRound
	condDone   uint64

	// Pool occupancy: generations in flight (pruned at run end).
	poolRuns map[uint64]*poolRun
	poolDone uint64

	// Barrier model.
	barrierParties int
	barrierStarts  int // arrivals announced in the current round
	barrierReturns int // arrivals that came back in the current round
	barrierRounds  uint64
}

// Oracle is the expected-state model. All methods are safe for concurrent
// use; per-key methods contend only on their key.
type Oracle struct {
	mu   sync.Mutex // guards keys map only
	keys map[string]*keyState

	// seq numbers the task and item events in the order they reach the
	// model; a divergence carries the number of the event that caused it.
	seq atomic.Uint64

	dmu  sync.Mutex
	divs []Divergence
}

// New returns an empty oracle.
func New() *Oracle {
	return &Oracle{keys: make(map[string]*keyState)}
}

func (o *Oracle) key(name string) *keyState {
	o.mu.Lock()
	ks := o.keys[name]
	if ks == nil {
		ks = &keyState{
			taskPending: make(map[uint64]bool),
			items:       make(map[uint64]uint8),
			condRounds:  make(map[uint64]*condRound),
			poolRuns:    make(map[uint64]*poolRun),
		}
		o.keys[name] = ks
	}
	o.mu.Unlock()
	return ks
}

// report records a divergence.
func (o *Oracle) report(seq uint64, key, kind, format string, args ...any) {
	d := Divergence{Seq: seq, Key: key, Kind: kind, Detail: fmt.Sprintf(format, args...)}
	o.dmu.Lock()
	o.divs = append(o.divs, d)
	o.dmu.Unlock()
}

// Divergences returns every divergence recorded so far.
func (o *Oracle) Divergences() []Divergence {
	o.dmu.Lock()
	defer o.dmu.Unlock()
	return append([]Divergence(nil), o.divs...)
}

// event assigns the next sequence number and applies the event to the
// model under the key's lock.
func (o *Oracle) event(kind op, key string, id uint64) {
	ks := o.key(key)
	ks.mu.Lock()
	o.applyLocked(ks, record{Seq: o.seq.Add(1), Op: kind, Key: key, ID: id})
	ks.mu.Unlock()
}

// applyLocked advances the model by one task or item event. Caller holds
// ks.mu.
func (o *Oracle) applyLocked(ks *keyState, r record) {
	switch r.Op {
	case opTaskSubmit:
		if ks.taskPending[r.ID] {
			o.report(r.Seq, r.Key, "task.resubmit", "task %d submitted twice", r.ID)
			return
		}
		ks.taskPending[r.ID] = true
		ks.tasksSubmitted++
	case opTaskComplete:
		if !ks.taskPending[r.ID] {
			o.report(r.Seq, r.Key, "task.unknown-complete",
				"task %d completed without a pending submission (double completion or phantom task)", r.ID)
			return
		}
		delete(ks.taskPending, r.ID)
		ks.tasksCompleted++
	case opItemPutStart:
		if st, ok := ks.items[r.ID]; ok {
			o.report(r.Seq, r.Key, "item.reput", "item %d put twice (state %d)", r.ID, st)
			return
		}
		ks.items[r.ID] = itemPutStarted
	case opItemPutDone:
		switch ks.items[r.ID] {
		case itemPutStarted:
			ks.items[r.ID] = itemPutDone
			ks.itemsPut++
		case itemGotEarly: // consumer reported it first; lifecycle closes here
			delete(ks.items, r.ID)
			ks.itemsPut++
		default:
			o.report(r.Seq, r.Key, "item.putdone-without-start",
				"item %d reported stored without a put intent", r.ID)
		}
	case opItemPutClosed:
		switch ks.items[r.ID] {
		case itemPutStarted:
			delete(ks.items, r.ID) // queue closed, item never entered
		case itemGotEarly:
			o.report(r.Seq, r.Key, "item.got-rejected",
				"item %d was consumed although its Put reported the queue closed", r.ID)
			delete(ks.items, r.ID)
		default:
			o.report(r.Seq, r.Key, "item.putclosed-without-start",
				"item %d reported rejected without a put intent", r.ID)
		}
	case opItemGot:
		switch ks.items[r.ID] {
		case itemPutDone:
			delete(ks.items, r.ID)
			ks.itemsGot++
		case itemPutStarted:
			// Consumer overtook the producer's post-Put record: the Put
			// has committed (the item came out of the queue), the
			// producer just hasn't reported it yet.
			ks.items[r.ID] = itemGotEarly
			ks.itemsGot++
		default:
			o.report(r.Seq, r.Key, "item.unknown-get",
				"item %d consumed without a live put (lost/duplicated item)", r.ID)
		}
	}
}

// --- Task-queue model ---

// TaskSubmitted records that task id became visible to workers of key.
func (o *Oracle) TaskSubmitted(key string, id uint64) { o.event(opTaskSubmit, key, id) }

// TaskCompleted records that task id's body finished executing.
func (o *Oracle) TaskCompleted(key string, id uint64) { o.event(opTaskComplete, key, id) }

// TaskQueueDrained asserts the quiesced state: every submitted task has
// completed. Call after the workload stopped submitting and Drain
// returned. Reports a divergence and returns false otherwise.
func (o *Oracle) TaskQueueDrained(key string) bool {
	ks := o.key(key)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if n := len(ks.taskPending); n != 0 {
		o.report(o.seq.Load(), key, "drain.incomplete",
			"drain returned with %d of %d submitted tasks never completed (first: %v)",
			n, ks.tasksSubmitted, firstKeys(ks.taskPending, 4))
		return false
	}
	return true
}

// --- Bounded-queue item model ---

// ItemPutStart records the intent to Put item id (call before Put).
func (o *Oracle) ItemPutStart(key string, id uint64) { o.event(opItemPutStart, key, id) }

// ItemPutDone records Put's outcome: ok is Put's return value.
func (o *Oracle) ItemPutDone(key string, id uint64, ok bool) {
	if ok {
		o.event(opItemPutDone, key, id)
	} else {
		o.event(opItemPutClosed, key, id)
	}
}

// ItemGot records that a consumer received item id.
func (o *Oracle) ItemGot(key string, id uint64) { o.event(opItemGot, key, id) }

// QueueDrained asserts the quiesced state: no item is mid-lifecycle —
// everything put was got, nothing is pending. Reports divergences and
// returns false otherwise.
func (o *Oracle) QueueDrained(key string) bool {
	ks := o.key(key)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	if n := len(ks.items); n != 0 {
		o.report(o.seq.Load(), key, "queue.unconserved",
			"queue drained with %d items mid-lifecycle: put=%d got=%d (first: %v)",
			n, ks.itemsPut, ks.itemsGot, firstKeys(ks.items, 4))
		return false
	}
	return true
}

// --- Condvar generation/wake accounting ---

// CondRoundStart opens broadcast round `round`: parties waiters are about
// to park behind the generation predicate.
func (o *Oracle) CondRoundStart(key string, round uint64, parties int) {
	ks := o.key(key)
	ks.mu.Lock()
	ks.condRounds[round] = &condRound{expected: parties}
	ks.mu.Unlock()
}

// CondWoken records one waiter of round `round` resuming past the flipped
// generation.
func (o *Oracle) CondWoken(key string, round uint64) {
	ks := o.key(key)
	ks.mu.Lock()
	if cr := ks.condRounds[round]; cr != nil {
		cr.woken++
	} else {
		o.report(o.seq.Load(), key, "cond.unknown-round", "wake reported for unknown round %d", round)
	}
	ks.mu.Unlock()
}

// CondRoundEnd closes the round. timedOut reports that the harness gave
// up waiting for the waiters; any waiter the model expected to resume but
// which never did is a lost wake-up. Returns false on divergence.
func (o *Oracle) CondRoundEnd(key string, round uint64, timedOut bool) bool {
	ks := o.key(key)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	cr := ks.condRounds[round]
	if cr == nil {
		o.report(o.seq.Load(), key, "cond.unknown-round", "round %d ended twice", round)
		return false
	}
	delete(ks.condRounds, round)
	ks.condDone++
	if cr.woken < cr.expected || timedOut {
		o.report(o.seq.Load(), key, "cond.lost-wakeup",
			"round %d: %d/%d waiters woke after the broadcast (lost wakeup: %d waiters never resumed, timed_out=%v)",
			round, cr.woken, cr.expected, cr.expected-cr.woken, timedOut)
		return false
	}
	if cr.woken > cr.expected {
		o.report(o.seq.Load(), key, "cond.overwake",
			"round %d: %d waiters woke but only %d parked", round, cr.woken, cr.expected)
		return false
	}
	return true
}

// --- Pool occupancy ---

// PoolRunStart opens pool generation gen: workers goroutines must each
// execute the command exactly once.
func (o *Oracle) PoolRunStart(key string, gen uint64, workers int) {
	ks := o.key(key)
	ks.mu.Lock()
	ks.poolRuns[gen] = &poolRun{workers: workers, ran: make(map[int]int, workers)}
	ks.mu.Unlock()
}

// PoolWorkerRan records worker `worker` executing generation gen's
// command once.
func (o *Oracle) PoolWorkerRan(key string, gen uint64, worker int) {
	ks := o.key(key)
	ks.mu.Lock()
	if pr := ks.poolRuns[gen]; pr != nil {
		pr.ran[worker]++
	} else {
		o.report(o.seq.Load(), key, "pool.unknown-gen", "worker %d ran unknown generation %d", worker, gen)
	}
	ks.mu.Unlock()
}

// PoolRunEnd closes generation gen after Run returned: occupancy must be
// exactly one invocation per worker. Returns false on divergence.
func (o *Oracle) PoolRunEnd(key string, gen uint64) bool {
	ks := o.key(key)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	pr := ks.poolRuns[gen]
	if pr == nil {
		o.report(o.seq.Load(), key, "pool.unknown-gen", "generation %d ended twice", gen)
		return false
	}
	delete(ks.poolRuns, gen)
	ks.poolDone++
	ok := len(pr.ran) == pr.workers
	for w, n := range pr.ran {
		if n != 1 {
			o.report(o.seq.Load(), key, "pool.occupancy",
				"generation %d: worker %d ran the command %d times (want exactly 1)", gen, w, n)
			ok = false
		}
	}
	if len(pr.ran) != pr.workers {
		o.report(o.seq.Load(), key, "pool.occupancy",
			"generation %d: %d of %d workers ran the command", gen, len(pr.ran), pr.workers)
	}
	return ok
}

// --- Barrier model ---

// BarrierInit declares the party count for key's barrier.
func (o *Oracle) BarrierInit(key string, parties int) {
	ks := o.key(key)
	ks.mu.Lock()
	ks.barrierParties = parties
	ks.mu.Unlock()
}

// BarrierArrive records a party announcing its arrival (call before
// Arrive).
func (o *Oracle) BarrierArrive(key string) {
	ks := o.key(key)
	ks.mu.Lock()
	ks.barrierStarts++
	ks.mu.Unlock()
}

// BarrierReturn records a party coming back from Arrive. A return while
// fewer than `parties` arrivals were announced this round means the
// barrier released early. Returns false on divergence.
func (o *Oracle) BarrierReturn(key string) bool {
	ks := o.key(key)
	ks.mu.Lock()
	defer ks.mu.Unlock()
	ok := true
	if ks.barrierStarts < ks.barrierParties {
		o.report(o.seq.Load(), key, "barrier.early-release",
			"a party returned with only %d of %d arrivals announced", ks.barrierStarts, ks.barrierParties)
		ok = false
	}
	ks.barrierReturns++
	if ks.barrierReturns == ks.barrierParties {
		ks.barrierRounds++
		ks.barrierStarts -= ks.barrierParties
		ks.barrierReturns = 0
	}
	return ok
}

// --- Totals for summaries ---

// Totals aggregates the model's counters across keys, for summary lines.
type Totals struct {
	TasksSubmitted, TasksCompleted, PendingTasks uint64
	ItemsPut, ItemsGot, OpenItems                uint64
	CondRounds, PoolRounds, BarrierRounds        uint64
}

// Totals returns the aggregate counters at this instant.
func (o *Oracle) Totals() Totals {
	var t Totals
	o.mu.Lock()
	keys := make([]*keyState, 0, len(o.keys))
	for _, ks := range o.keys {
		keys = append(keys, ks)
	}
	o.mu.Unlock()
	for _, ks := range keys {
		ks.mu.Lock()
		t.TasksSubmitted += ks.tasksSubmitted
		t.TasksCompleted += ks.tasksCompleted
		t.PendingTasks += uint64(len(ks.taskPending))
		t.ItemsPut += ks.itemsPut
		t.ItemsGot += ks.itemsGot
		t.OpenItems += uint64(len(ks.items))
		t.CondRounds += ks.condDone
		t.PoolRounds += ks.poolDone
		t.BarrierRounds += ks.barrierRounds
		ks.mu.Unlock()
	}
	return t
}

// firstKeys renders up to n map keys for divergence details (sorted, so
// messages are stable).
func firstKeys[V any](m map[uint64]V, n int) []uint64 {
	out := make([]uint64, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	if len(out) > n {
		out = out[:n]
	}
	return out
}
