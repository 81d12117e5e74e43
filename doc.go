// Package repro is a from-scratch Go reproduction of "Transaction-Friendly
// Condition Variables" (Chao Wang, Yujie Liu, Michael Spear — SPAA 2014).
//
// The paper's contribution — a condition variable implemented as a
// transactional queue of per-thread semaphores, usable from locks,
// transactions, and unsynchronized code, with no spurious wake-ups — lives
// in internal/core. Its substrates (a software/simulated-hardware TM
// engine, counting semaphores, sync contexts) and its evaluation (eight
// PARSEC-style workloads under three synchronization systems) live in the
// other internal packages. See README.md for the tour, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for paper-vs-measured results.
//
// The paper's tables and figures, and every performance number:
//
//	go run ./cmd/parsecbench            # Figures 1-3, formatted like the paper
//	go run ./cmd/table1                 # Table 1
//	bash benchmark/run.sh               # the repository benchmark (benchmark/README.md)
package repro
