//go:build race

package core

// The race detector gives each transaction attempt allocating shadow
// state, so the strict zero-alloc guards skip under -race. verify.sh
// still runs them race-free in its overhead-guard step.
const raceEnabled = true
