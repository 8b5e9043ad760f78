// The one options struct shared by every engine, audit and fuzz entry point.
//
// The engine's verification fan-out, the audit's adversarial trial fan-out
// and the fuzz campaign's trial fan-out all need the same knobs: a worker
// count, a deterministic seed, and budgets. They used to carry them in
// separate structs (VerifyOptions / AuditOptions) whose fields drifted; every
// entry point now takes a RunOptions and reads the fields it cares about.
//
// Determinism contract: for a fixed seed and fixed budgets, every consumer
// produces bit-identical results for every num_threads value (the engine's
// rejecting set, the audit's forgery, the fuzz campaign's findings).
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/solve/backend.hpp"

namespace lcert {

struct RunOptions {
  // --- worker pool (engine and prover encoders: per-vertex fan-out;
  // audit/fuzz: per-trial; the MSO prover's solve passes stay serial) ---
  /// 0 = auto (serial below kParallelAutoCutoff items, hardware concurrency
  /// above). An explicit count is honoured up to the item count.
  std::size_t num_threads = 0;

  // --- verification ---
  /// Early-exit mode for callers where only accept/reject matters: stop
  /// handing out vertices once one rejects. `all_accept` and the bit
  /// accounting stay exact; the rejecting set holds at least one witness on
  /// rejection but is not exhaustive (and may vary run-to-run under threads).
  bool stop_at_first_reject = false;

  // --- seeded randomness ---
  /// Campaign/battery seed. The audit also accepts an explicit Rng (tests
  /// thread one through several calls); the fuzz engine derives per-trial
  /// seeds from this field so any trial replays from (seed, trial index).
  std::uint64_t seed = 42;

  // --- adversarial budgets (audit attack families; fuzz per-trial attacks) ---
  std::size_t random_trials = 200;    ///< uniformly random certificates
  std::size_t mutation_trials = 200;  ///< bit-flips of a template assignment
  std::size_t max_random_bits = 64;   ///< length of random certificates
  bool try_replay = true;             ///< replay template certificates shuffled

  // --- campaign budget ---
  /// Wall-clock budget in seconds; 0 = trial-count driven. Only the fuzz
  /// campaign consumes this (trial counts stay exact and deterministic,
  /// time budgets by nature are not).
  double time_budget_s = 0;

  // --- proving (last fields: existing aggregate initializers stay valid) ---
  /// Enable the hash-consed subtree certificate cache in batch provers.
  /// Off is strictly a debugging/benchmarking mode: output is bit-identical
  /// either way (pinned by tests), only the work done changes.
  bool memoize = true;

  /// Which FeasibilitySolver backend (src/solve/) decides the per-vertex UOP
  /// assignment problem: greedy (default), cold-flow (the pristine reference)
  /// or sat. Like `memoize`, a debugging/benchmarking/differential
  /// knob: output is bit-identical under every backend (pinned by tests and
  /// the solver-divergence fuzz oracle).
  solve::Backend solver = solve::kDefaultBackend;
};

}  // namespace lcert
