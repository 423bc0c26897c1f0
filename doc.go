// Package mixedmem is a from-scratch Go reproduction of "Mixed Consistency:
// A Model for Parallel Programming" (Agrawal, Choy, Leong, Singh, PODC
// 1994): a distributed-shared-memory programming model combining PRAM and
// causal reads with read/write locks, barriers, and await statements.
// Sequential consistency is the top point of the same per-location label
// lattice (Slow < PRAM < Causal < SC), served by an owner round trip.
//
// The library lives under internal/:
//
//   - internal/core — the programming model (System, Proc, the Process
//     interface);
//   - internal/dsm — the replicated memory runtime with its PRAM and causal
//     apply pipelines and the SC owner protocol;
//   - internal/syncmgr — lock and barrier managers with eager, lazy, and
//     demand-driven propagation;
//   - internal/network — the simulated FIFO message-passing fabric;
//   - internal/history, internal/check — the formal model of Section 3 and
//     the consistency checkers (Definitions 1–4, Theorem 1, Corollaries
//     1–2);
//   - internal/apps — the Section 5 applications;
//   - internal/bench — the experiment harness behind cmd/mixedbench and the
//     benchmarks in bench_test.go.
//
// See README.md for a quickstart, DESIGN.md for the system inventory, and
// EXPERIMENTS.md for the paper-versus-measured record.
package mixedmem
