package obs

import "sync/atomic"

// parkLabels gates the goroutine pprof labeling the condvar applies
// around a node's park, so /debug/pprof/goroutine profiles and the
// /debug/cv/waiters dump can attribute a parked goroutine to its
// condvar node. It follows the tracer's discipline: off by default, and
// the disabled check is a single atomic load with zero allocations
// (guarded by overhead_test.go). It counts holders, so every live
// introspection server keeps labels on: Start holds, Close releases,
// and labels are on while any holder remains.
var parkLabels atomic.Int32

// HoldParkLabels turns park-time goroutine labeling on until the
// matching ReleaseParkLabels.
func HoldParkLabels() { parkLabels.Add(1) }

// ReleaseParkLabels drops one HoldParkLabels; labeling stops when the
// last holder releases.
func ReleaseParkLabels() { parkLabels.Add(-1) }

// ParkLabelsEnabled reports whether park-time goroutine labeling is on.
func ParkLabelsEnabled() bool { return parkLabels.Load() > 0 }
