//go:build stmsan

package core

import (
	"testing"

	"repro/internal/stm"
)

// Under -tags stmsan every engine runs the sanitizer, so a node released
// with a post still in its slot — a wake the owner never consumed —
// panics instead of waking the next waiter that draws it from the pool.
func TestSanitizerReleaseWithStrandedPost(t *testing.T) {
	cv := New(stm.NewEngine(stm.Config{}), Options{})
	n := cv.acquireNode()
	n.wake <- struct{}{}
	defer expectSanitizerPanic(t, "post still in its slot")
	cv.releaseNode(n)
}
