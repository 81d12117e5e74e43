package sem

import (
	"context"
	"runtime/pprof"
	"strconv"
	"time"
)

// This file is the semaphore's face toward the live-introspection stack
// (DESIGN.md §10): park ages for /debug/cv/waiters and the park-time
// goroutine pprof labels, both off the Wait fast path — ages are read
// under the waiter-list lock only when a scraper asks, and the label
// calls sit behind obs.ParkLabelsEnabled (one atomic load when off,
// checked by TestParkLabelGateNoAlloc in internal/obs).

// parkAge is the age of a park that began at t, clamped at zero: a
// stepping clock must not report a negative age, the same discipline as
// the park histogram.
func parkAge(now, t time.Time) time.Duration {
	if d := now.Sub(t); d > 0 {
		return d
	}
	return 0
}

// OldestParkAge returns the park age of the longest-waiting goroutine
// (the head of the queue) and whether anyone is parked at all.
func (s *Sem) OldestParkAge() (time.Duration, bool) {
	if s.n.Load() == 0 {
		return 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.head == nil {
		return 0, false
	}
	return parkAge(time.Now(), s.head.parkedAt), true
}

// ParkLabelKey is the goroutine pprof label key parked waiters carry
// (value: the lane / condvar node id). Visible in goroutine profiles of
// a process with introspection on, and echoed by /debug/cv/waiters.
const ParkLabelKey = "cv_lane"

// labelParked tags the calling goroutine with its park lane so goroutine
// profiles taken during the park attribute it to its condvar node.
func labelParked(lane uint64) {
	pprof.SetGoroutineLabels(pprof.WithLabels(context.Background(),
		pprof.Labels(ParkLabelKey, strconv.FormatUint(lane, 10))))
}

// clearParkLabel drops the park label once the goroutine resumes.
func clearParkLabel() {
	pprof.SetGoroutineLabels(context.Background())
}
