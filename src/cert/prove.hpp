// Prover engine, symmetric to the verify engine (engine.hpp).
//
// The paper's constructions all build certificates bottom-up over a rooted
// tree: the MSO schemes run a tree automaton, the treedepth and kernelization
// schemes walk elimination trees. prove_assignment is the one entry point —
// it hands the scheme a ProverContext carrying the run options, per-worker
// arena/writer scratch, one feasibility solver and the memo counters, and
// calls Scheme::prove_batch (default: plain assign()). The MSO automaton
// passes run serially (their memo leaves a few distinct computations per
// tree level); the flat per-vertex loops — certificate encoding and copying,
// the treedepth core build — fan out through for_each_index.
//
// Determinism contract (pinned by tests/test_prover_pipeline.cpp): for a
// fixed graph, prove_assignment returns bit-identical certificates for every
// num_threads value and with memoization on or off — and exactly the
// certificates scheme.assign(g) returns. Parallelism and memoization are
// pure speedups, never semantic forks.
#pragma once

#include <cstddef>
#include <memory>
#include <optional>
#include <vector>

#include "src/cert/options.hpp"
#include "src/cert/scheme.hpp"
#include "src/solve/solver.hpp"
#include "src/util/arena.hpp"
#include "src/util/bitio.hpp"
#include "src/util/parallel.hpp"

namespace lcert {

/// Per-run state handed to Scheme::prove_batch. Owns one arena-backed
/// BitWriter per worker (worker 0 is the calling thread), so a batch prover
/// encodes certificates with zero steady-state allocations; arenas persist
/// across the run and are reset between vertices only via
/// BitWriter::clear(), which retains the buffer.
class ProverContext {
 public:
  /// `universe` bounds the parallel fan-out (vertex count of the graph being
  /// proven); the worker scratch is sized for the largest fan-out a flat
  /// per-vertex loop can need under `options.num_threads`.
  ProverContext(std::size_t universe, const RunOptions& options);

  const RunOptions& options() const noexcept { return options_; }
  bool memoize() const noexcept { return options_.memoize; }

  /// Upper bound on worker ids ever passed to scratch accessors.
  std::size_t worker_count() const noexcept { return scratch_.size(); }

  /// The worker's arena-backed writer, cleared and ready for one certificate.
  BitWriter& writer(std::size_t worker) {
    BitWriter& w = scratch_[worker]->writer;
    w.clear();
    return w;
  }

  /// Fans fn(worker, i) for i in [0, count) over the run's worker pool, for
  /// flat per-vertex loops over at most the context's universe; fn must
  /// write only slots owned by index i so the result is thread-count
  /// independent.
  template <typename Fn>
  void for_each_index(std::size_t count, Fn&& fn) {
    parallel_for_workers(count, options_.num_threads, std::forward<Fn>(fn));
  }

  /// Memo cache accounting (obs counters prover/memo_hits, prover/memo_misses
  /// plus per-run tallies the tests and the CLI read back directly).
  void count_memo_hits(std::size_t k);
  void count_memo_misses(std::size_t k);
  std::size_t memo_hits() const noexcept { return memo_hits_; }
  std::size_t memo_misses() const noexcept { return memo_misses_; }

  /// The run's feasibility solver backend (DESIGN.md §15), built by
  /// SolverFactory from options().solver. Calling-thread scratch: warm
  /// across vertices within the run, zero steady-state allocations.
  solve::FeasibilitySolver& feasibility() { return *feasibility_; }

  /// The solver's per-stage decision counts (prove_assignment reads them
  /// after the run to fill ProveResult and the obs counters
  /// prover/feas_pruned|greedy|warm|flow|sat).
  solve::DecisionCounts feas_counts() const { return feasibility_->counts(); }

 private:
  struct WorkerScratch {
    Arena arena;
    BitWriter writer;
    WorkerScratch() : writer(arena) {}
  };

  RunOptions options_;
  std::vector<std::unique_ptr<WorkerScratch>> scratch_;
  std::unique_ptr<solve::FeasibilitySolver> feasibility_;
  std::size_t memo_hits_ = 0;
  std::size_t memo_misses_ = 0;
};

struct ProveResult {
  std::optional<std::vector<Certificate>> certificates;
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  /// Per-stage decision counts of the feasibility solver (zero for schemes
  /// that never query it). Thread-count invariant: the solver runs serially.
  solve::DecisionCounts feas;
};

/// Prover entry point: runs scheme.prove_batch under a fresh ProverContext.
/// Same certificates as scheme.assign(g), for every thread count, memoized
/// or not.
ProveResult prove_assignment(const Scheme& scheme, const Graph& g,
                             const RunOptions& options = {});

}  // namespace lcert
