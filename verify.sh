#!/bin/sh
# verify.sh — the repository's full verification gate. Everything here is
# hermetic (toolchain only, nothing beyond loopback): build, vet, the
# test suite under the race detector, a second stm/core pass with the
# runtime sanitizer compiled on (-tags stmsan), the cvlint static misuse
# analyzers over the whole module, a vet of the nested benchmark module,
# the bounded exhaustive model-checking battery, a causal wake-trace gate
# (the chaos soak dumps its event ring and cvtrace -check revalidates
# every wake flow offline), and a live-introspection smoke gate that
# scrapes the /debug/cv/* endpoints during a chaos soak. It checks
# behaviour only; performance numbers come from `bash benchmark/run.sh`.
#
# Tier-1 (the subset CI must keep green) is `go build ./... && go test
# ./...`; this script is the superset to run before merging.
#
# `./verify.sh -short` skips the time-heavy blackbox gates (the blackbox
# oracle soak, the injected-bug negative gate, the regression-seed
# replay, the flake gate over every package that runs transactions,
# parks on sem or traces, and the nested benchmark module's smoke test)
# for a quick pre-push run.
set -eu

SHORT=0
[ "${1:-}" = "-short" ] && SHORT=1

step() { printf '\n== %s\n' "$*"; }

step "build"
go build ./...

step "vet"
go vet ./...
# benchmark/ is its own module, which root ./... patterns never reach;
# vetting it here notices when an exported name it calls (internal/sem,
# core, facility, stm, syncx, parsec, obs) goes away.
(cd benchmark && go vet .)

step "tests (race detector)"
go test -race ./...

step "tests (multicore: GOMAXPROCS=4 race re-run of the wake/commit fabric)"
# The spin gate lives only in sem's parking lot (syncx.Mutex, monitor):
# there the head waiter — an untimed Wait that enqueued onto an empty
# queue — spins before it parks, and only with more than one P, so a
# single-core host silently skips its multicore schedules; the condvar's
# nodes park on a one-slot channel without spinning, and its batch post
# loop only overlaps its woken waiters with more than one P. Re-run the
# three fabric packages with four Ps forced — the race detector sees the
# spin-phase and concurrent-commit interleavings even when the host has
# one CPU.
GOMAXPROCS=4 go test -race ./internal/sem ./internal/core ./internal/stm
# The serial gate's reader slots and serialPending handshake, stm.Peek's
# reads against held serial and optimistic writers, two Vars on one
# stripe (one orec: a writer of either conflicts with a reader of the
# other and wakes its Retry), and the one-stripe transaction
# (AtomicStripe: its misuse panics, delay-only fault hooks, exclusion of
# and by optimistic, read-only, Peek and relaxed transactions, Retry
# wake-ups): twenty race-detector runs of their tests at each core
# count, so the one-P schedules (the violator runs without blocking) and
# the parallel ones both get exercised.
for procs in 1 2 4; do
	GOMAXPROCS=$procs go test -race -run 'TestSerialGate|TestPeek|TestStripe|TestAtomicStripe' -count=20 ./internal/stm
done

step "tests (runtime sanitizer on: -tags stmsan)"
go test -tags stmsan ./internal/stm ./internal/core

step "cvlint (static misuse analyzers)"
# Production code must be clean outright. Test files run against a
# committed baseline: the recorded findings are deliberate misuse
# constructions (tests that exercise the hazards themselves); anything
# NEW in a _test.go file still fails the gate, and so does a recorded
# entry that no finding matches any more (the baseline only shrinks).
# Regenerate after a reviewed change with:
#   go run ./cmd/cvlint -tests -write-baseline lint-tests.baseline ./...
go run ./cmd/cvlint ./...
go run ./cmd/cvlint -tests -baseline lint-tests.baseline ./...

step "tracer overhead guard (disabled path must not allocate)"
go test -run 'TestTraceDisabledNoAlloc|TestTraceEnabledNoAlloc|TestEmitFlowNoAlloc|TestHistogramObserveNoAlloc' ./internal/obs
go test -run 'NoAlloc' ./internal/obs/registry
# A one-stripe wait cycle (an enqueue, then a dequeue that registers a
# pre-bound commit handler, each an AtomicStripe on one stripe) allocates
# nothing once the Tx pool is warm.
go test -run 'TestNamedVarCommitNoAlloc|TestRecordAbortNoAlloc|TestOnCommitCallNoAlloc|TestOnCommitNoAlloc|TestAtomicStripeWaitCycleNoAlloc' ./internal/stm
# The causal wake stamp (node stamp + consumer attribution) rides the
# notify→post→wake hot path; the wakeID is minted only by an armed
# tracer, so a disarmed committed notify stamps 0 and does no shared
# write. With the tracer disarmed the whole cycle must stay
# allocation-free, bounding the wake-tracing overhead on a broadcast to
# the node-local atomic stores.
# A timeout/cancel loser's unlink registers no commit handler, so the
# enqueue+unlink cycle is allocation-free too. The condvar park itself —
# a post into a node's one-slot channel and a real deschedule on it,
# stats attached — allocates nothing on two warm nodes, and the test
# asserts that its measured loop parked (Sem.Blocks grew). A whole
# untagged node cycle (pool, enqueue, unlink, release) allocates nothing,
# and a naked notify on an empty queue is one consistent read (stm.Peek):
# no transaction, no commit, no allocation. A whole wait cycle (enqueue,
# naked NotifyOne, park, release) and a 16-waiter NotifyAll cycle
# allocate nothing (their commit handlers are pre-bound, not closures),
# and with no reader of the node stamps a wait cycle reads no clock. With
# debug checks off a wait cycle writes none of the sanitizer's node words
# (inQueue, gen), and each of its two transactions locks one orec (head,
# tail and the links are one stripe, which a naked or lock-based queue
# operation locks first, as a one-stripe transaction).
go test -run 'TestWakeStampDisarmedNoAlloc|TestLoserUnlinkNoAlloc|TestParkNoAlloc|TestWaitNodeCycleNoAlloc|TestWaitNotifyCycleNoAlloc|TestNotifyAllCycleNoAlloc|TestDisarmedWaitCycleNoClock|TestNakedNotifyEmptyNoAlloc|TestDisarmedNodeWords|TestWaitCycleLocksOneOrecPerTransaction' ./internal/core
# The parking lot's pooled park path (syncx.Mutex, monitor): a Wait that
# parks and is woken must recycle its waiter node and channel — 0
# allocs/op once the pool is warm. Its "park" case pins the single-P
# (no-spin) path and asserts every measured Wait parked; its "spin" case
# asserts a head waiter caught the post in its spin, also
# allocation-free. The core and sem guards must run race-free: race
# shadow state adds a deterministic allocation per park (both tests skip
# themselves under -race, so these lines are the real gates).
go test -run 'TestWaitPooledNoAlloc' ./internal/sem

step "broadcast wake smoke (one committed batch over 64 waiters)"
# A wide NotifyAll batch — one dequeue transaction, one commit handler,
# one post per waiter — wakes every waiter exactly once.
go test -run TestNotifyAllBatchedConservation ./internal/core

step "modelcheck (bounded exhaustive interleavings, standard battery)"
# No flags = the whole battery, including the timeout/cancel loser mixes
# (timed waiters racing NotifyOne and NotifyAll).
go run ./cmd/modelcheck

step "chaos soak (deterministic fault injection, fixed seed)"
go test -race ./internal/fault
# The soak doubles as the causal wake-trace gate: -trace dumps the run's
# event ring (and fails the run on any in-run wake-flow violation), then
# cvtrace -check revalidates the dump offline — every committed notify's
# wake flow must reconstruct with a post behind every consume (flows that
# began at or before the ring's retention horizon are skipped, not failed).
go run ./cmd/cvstress -mode chaos -seed 3405691582 -faultrate 0.25 -duration 2s \
	-trace /tmp/chaos_trace.$$
go run ./cmd/cvtrace -check /tmp/chaos_trace.$$
rm -f /tmp/chaos_trace.$$

if [ "$SHORT" -eq 0 ]; then
	# The blackbox gates need the real exit code (go run collapses every
	# failure to 1), so build the binary once and run it directly.
	CVSTRESS=/tmp/cvstress_bb.$$
	go build -o "$CVSTRESS" ./cmd/cvstress

	step "blackbox oracle gate (expected-state shadowing, fixed seed)"
	"$CVSTRESS" -mode blackbox -seed 3405691582 -faultrate 0.25 -duration 4s -goroutines 8

	step "blackbox negative gate (injected lost-wakeup bug must be caught)"
	# The harness's own detector is gated here: -buglostwake wakes each
	# broadcast round one waiter short, and the run MUST exit 2 with the
	# stranded waiter named. A passing run means the oracle went blind.
	set +e
	"$CVSTRESS" -mode blackbox -seed 3405691582 -faultrate 0 \
		-duration 200ms -goroutines 4 -buglostwake >/tmp/bb_neg.$$ 2>&1
	rc=$?
	set -e
	[ "$rc" -eq 2 ] || {
		echo "negative gate: expected exit 2 (invariant violation), got $rc:"
		cat /tmp/bb_neg.$$; rm -f /tmp/bb_neg.$$ "$CVSTRESS"; exit 1;
	}
	grep -q 'cond.lost-wakeup' /tmp/bb_neg.$$ || {
		echo "negative gate: lost wakeup not named:"; cat /tmp/bb_neg.$$
		rm -f /tmp/bb_neg.$$ "$CVSTRESS"; exit 1;
	}
	rm -f /tmp/bb_neg.$$

	step "regression seeds (replay recorded past-failure seeds)"
	go test -run TestRegressionSeeds ./cmd/cvstress
	rm -f "$CVSTRESS"

	step "flake gate (transaction, sem, tracing, oracle and harness packages' tests five times at GOMAXPROCS 1, 2 and 4 beside a CPU hog)"
	# A busy loop steals one CPU for the whole gate, so tests that lean on
	# scheduling (backoff, retry wake-ups, the serial fallback, the spin
	# gate, timeout/cancel losers racing notifiers) see the preemption of
	# a loaded host; a test that passes only on an idle one fails here.
	# The trap stops the hog however the gate ends.
	sh -c 'while :; do :; done' &
	HOGPID=$!
	trap 'kill $HOGPID 2>/dev/null' EXIT
	trap 'exit 130' INT TERM
	for procs in 1 2 4; do
		GOMAXPROCS=$procs go test -count=5 ./internal/stm ./internal/sem ./internal/core \
			./internal/facility ./internal/syncx ./internal/monitor \
			./internal/pthreadcv \
			./internal/obs/... ./internal/waketrace \
			./internal/oracle ./internal/harness
	done
	kill $HOGPID
	trap - EXIT INT TERM

	step "benchmark module (smoke test)"
	(cd benchmark && go test .)
else
	step "skipping blackbox gates (-short)"
fi

step "introspection smoke (live /debug/cv/* endpoints during a chaos run)"
# Start a chaos soak with the introspection server on an ephemeral port,
# scrape it while the workload runs, and validate every endpoint's
# format with cvtop -check (Prometheus exposition + JSON shapes).
ISPORT=39217
go run ./cmd/cvstress -mode chaos -seed 3405691582 -faultrate 0.25 -duration 4s \
	-introspect "127.0.0.1:$ISPORT" >/tmp/cvstress_is.$$ 2>&1 &
ISPID=$!
ISADDR="127.0.0.1:$ISPORT"
# Wait for the listener, then give the workload a beat to register sources.
i=0
until curl -fsS "http://$ISADDR/debug/cv/vars" >/dev/null 2>&1; do
	i=$((i + 1))
	[ $i -lt 50 ] || { echo "introspection endpoint never came up"; cat /tmp/cvstress_is.$$; exit 1; }
	sleep 0.1
done
sleep 0.5
curl -fsS "http://$ISADDR/debug/cv/metrics" >/tmp/is_metrics.$$
grep -q '^stm_commits_total{' /tmp/is_metrics.$$ || {
	echo "live metrics missing stm_commits_total:"; cat /tmp/is_metrics.$$; exit 1;
}
grep -q '^cv_queue_depth{' /tmp/is_metrics.$$ || {
	echo "live metrics missing cv_queue_depth:"; cat /tmp/is_metrics.$$; exit 1;
}
grep -q '^cv_wake_consumed_total{' /tmp/is_metrics.$$ || {
	echo "live metrics missing cv_wake_consumed_total:"; cat /tmp/is_metrics.$$; exit 1;
}
curl -fsS "http://$ISADDR/debug/cv/waiters" | grep -q '"generated_at"' || {
	echo "waiters endpoint malformed"; exit 1;
}
# Attribution smoke: the chaos workload hammers a Var named chaos.hot,
# so the conflicts table must rank it. Rows with no aborts are omitted,
# so the row exists only if attribution recorded its aborts.
curl -fsS "http://$ISADDR/debug/cv/conflicts" >/tmp/is_conflicts.$$
grep -q '"chaos.hot"' /tmp/is_conflicts.$$ || {
	echo "conflicts endpoint missing the known-hot Var chaos.hot:"; cat /tmp/is_conflicts.$$; exit 1;
}
rm -f /tmp/is_conflicts.$$
go run ./cmd/cvtop -addr "$ISADDR" -check
wait $ISPID || { echo "instrumented chaos soak failed:"; cat /tmp/cvstress_is.$$; exit 1; }
rm -f /tmp/is_metrics.$$ /tmp/cvstress_is.$$

step "ok"
