package core

import (
	"context"
	"runtime/pprof"
	"strconv"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/registry"
	"repro/internal/stm"
)

// This file is the condvar's face toward the live-introspection stack
// (DESIGN.md §10): the CVStats instrument table backing
// Snapshot/Histograms/RegisterMetrics, the per-condvar wait-chain
// source behind /debug/cv/waiters, and the park-time goroutine labels.
// Nothing here runs unless a scraper asks, except the labels, which the
// park applies only behind obs.ParkLabelsEnabled (one atomic load when
// off, checked by TestParkLabelGateNoAlloc in internal/obs).

// epoch anchors the Node timestamps: monotonic nanoseconds since
// process-local time zero fit an atomic.Int64, which plain time.Time
// stamps (3 words) do not.
var epoch = time.Now()

// monoNS returns monotonic nanoseconds since the package epoch. Always
// positive in practice (the first caller runs after init), so zero can
// mean "unset".
func monoNS() int64 { return time.Since(epoch).Nanoseconds() }

// cvScalar is one CVStats counter row.
type cvScalar struct {
	name string
	help string
	read func() int64
}

// scalars lists every scalar instrument CVStats exports, including the
// two semaphore aggregates the JSON snapshot has always carried.
func (s *CVStats) scalars() []cvScalar {
	return []cvScalar{
		{"waits", "completed WAIT operations", s.Waits.Load},
		{"notify_ones", "NotifyOne calls that woke someone", s.NotifyOnes.Load},
		{"notify_alls", "NotifyAll calls that woke at least one thread", s.NotifyAlls.Load},
		{"notify_empty", "notifies that found an empty queue", s.NotifyEmpty.Load},
		{"woken", "total threads woken", s.Woken.Load},
		{"timeouts", "timed waits that expired un-notified", s.Timeouts.Load},
		{"cancels", "context waits that ended cancelled", s.Cancels.Load},
		{"sem_posts", "node semaphore posts", s.Sem.Posts.Load},
		{"sem_blocks", "node semaphore waits that descheduled", s.Sem.Blocks.Load},
		{"wake_consumed_waiter", "wakes consumed by live waiters", s.WakeConsumed[obs.WakeByWaiter].Load},
		{"wake_consumed_timeout", "wakes consumed by timed-out losers", s.WakeConsumed[obs.WakeByTimeout].Load},
		{"wake_consumed_cancel", "wakes consumed by cancelled losers", s.WakeConsumed[obs.WakeByCancel].Load},
	}
}

// cvHist is one CVStats histogram row.
type cvHist struct {
	name string
	help string
	h    *obs.Histogram
}

func (s *CVStats) histograms() []cvHist {
	return []cvHist{
		{"enqueue_to_notify_ns", "enqueue to the notifier's committed post", &s.EnqueueToNotify},
		{"notify_to_wake_ns", "committed post to the waiter resuming", &s.NotifyToWake},
		{"broadcast_ns", "notify-batch commit to last waiter resumed", &s.BroadcastNanos},
		{"sem_park_ns", "park duration of descheduled waits", &s.Sem.ParkNanos},
	}
}

// RegisterMetrics registers every CVStats instrument into r under the
// given labels: counters as cv_<name>_total, histograms as cv_<name>.
func (s *CVStats) RegisterMetrics(r *registry.Registry, labels registry.Labels) {
	if r == nil {
		return
	}
	for _, sc := range s.scalars() {
		// The wake_consumed_* rows export as one labeled family below, not
		// as three counter names (the by= label is the query axis).
		if sc.name == "wake_consumed_waiter" || sc.name == "wake_consumed_timeout" || sc.name == "wake_consumed_cancel" {
			continue
		}
		r.RegisterCounter("cv_"+sc.name+"_total", sc.help, labels, sc.read)
	}
	registerConsumed(r, labels, &s.WakeConsumed)
	for _, th := range s.histograms() {
		r.RegisterHistogram("cv_"+th.name, th.help, labels, th.h.Snapshot)
	}
}

// maxWaitChain bounds one WaitChain walk; a queue deeper than this is
// truncated in the dump (the cv_queue_depth walk still counts it all).
const maxWaitChain = 4096

// WaitChain returns the current wait queue as registry Waiters: node
// ids, enqueue ages, and park ages. The queue is walked in a read-only
// transaction (so a torn list is never observed); the node pointers are
// then inspected outside it through their atomic stamps, so a node
// released concurrently yields stale-but-safe values. ParkAgeNS
// is -1 for a waiter that is enqueued but not yet descheduled — the
// paper's lost-wakeup window, made visible.
func (cv *CondVar) WaitChain() []registry.Waiter {
	var nodes []*Node
	_ = cv.e.AtomicRead(func(tx *stm.Tx) {
		nodes = nodes[:0]
		for n := stm.Read(tx, cv.head); n != nil; n = stm.Read(tx, n.next) {
			nodes = append(nodes, n)
			if len(nodes) == maxWaitChain {
				return
			}
		}
	})
	now := monoNS()
	labelsOn := obs.ParkLabelsEnabled()
	out := make([]registry.Waiter, 0, len(nodes))
	for _, n := range nodes {
		w := registry.Waiter{Node: n.id, ParkAgeNS: -1}
		if enq := n.enqueuedNS.Load(); enq != 0 {
			if age := now - enq; age > 0 {
				w.EnqueueAgeNS = age
			}
		}
		if parked := n.parkedNS.Load(); parked != 0 {
			// A park stamped after `now` was read gives a negative raw
			// age; and a waiter always enqueues before it parks. Clamp to
			// both.
			w.ParkAgeNS = min(max(now-parked, 0), w.EnqueueAgeNS)
		}
		if labelsOn {
			w.PprofLabel = ParkLabelKey + "=" + strconv.FormatUint(n.id, 10)
		}
		out = append(out, w)
	}
	return out
}

// ParkLabelKey is the goroutine pprof label key parked waiters carry
// (value: the condvar node id). Visible in goroutine profiles of a
// process with introspection on, and echoed by /debug/cv/waiters.
const ParkLabelKey = "cv_lane"

// labelParked tags the calling goroutine with its node id so goroutine
// profiles taken during the park attribute it to its condvar node.
func labelParked(id uint64) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels(ParkLabelKey, strconv.FormatUint(id, 10))))
}

// clearParkLabel drops the park label once the goroutine resumes.
func clearParkLabel() {
	pprof.SetGoroutineLabels(context.Background())
}

// RegisterIntrospect registers the condvar's live sources into r under
// name: the queue-depth gauge and the wait-chain source. Both walk the
// queue in a read-only transaction at scrape time; the wait path keeps
// no count of its own.
func (cv *CondVar) RegisterIntrospect(r *registry.Registry, name string) {
	if r == nil {
		return
	}
	r.RegisterGauge("cv_queue_depth", "condvar wait-queue depth, walked at scrape time",
		registry.Labels{"cv": name}, func() int64 { return int64(cv.Len()) })
	r.RegisterWaiters(name, cv.WaitChain)
}

// RegisterConsumedMetrics enables this condvar's per-instance
// consumed-by counters and registers them into r labeled with the
// condvar's name — the named-CV view of CVStats.WakeConsumed, so a
// facility's "queue.notempty" losers are distinguishable from its
// "queue.notfull" ones. A setup-time call like SetStats: it flips the
// consumedOn flag the wake path reads unsynchronized, so call it before
// the condvar is shared. No-op if r is nil or the condvar is unnamed.
func (cv *CondVar) RegisterConsumedMetrics(r *registry.Registry) {
	if r == nil || cv.name == "" {
		return
	}
	cv.consumedOn = true
	registerConsumed(r, registry.Labels{"cv": cv.name}, &cv.consumed)
}

// registerConsumed registers one cv_wake_consumed_total{by=} family over
// counters indexed by the obs.WakeBy* codes.
func registerConsumed(r *registry.Registry, labels registry.Labels, c *[3]obs.Counter) {
	r.RegisterCounterSet("cv_wake_consumed_total",
		"wakes consumed, by consumer kind (waiter, or a timeout/cancel loser keeping a raced permit)",
		labels, func() []registry.Sample {
			return []registry.Sample{
				{Labels: registry.Labels{"by": "waiter"}, Value: c[obs.WakeByWaiter].Load()},
				{Labels: registry.Labels{"by": "timeout"}, Value: c[obs.WakeByTimeout].Load()},
				{Labels: registry.Labels{"by": "cancel"}, Value: c[obs.WakeByCancel].Load()},
			}
		})
}
