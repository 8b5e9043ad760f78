// Shared pruning pass of the feasibility backends (DESIGN.md §15).
//
// Every backend except the cold-flow reference answers the per-vertex
// assignment question in two stages: first this pruner — cheap, conclusive-
// only checks lifted out of the old UopFeasibility tier 1 — then the
// backend's own decision procedure on whatever the pruner could not settle.
// The pruner's contract is exactness: kFeasible/kInfeasible must equal the
// boolean uop_assign_children_masked would return; kInconclusive says
// nothing. That is what lets very different backends share it and still
// agree bit-for-bit (pinned by the brute-force cross-check tests and the
// solver-divergence fuzz oracle).
//
// prune() covers: unit (unconstrained) boxes, infeasible intervals, stuck
// children (no usable state), per-state supply vs lower-bound demand, and a
// Hall cut on the finitely-capped side. combinatorial() adds the exact
// subset-Hall zeta-transform (when no cap binds and at most 8 states carry
// demand) and a most-constrained-first greedy witness — the rest of the old
// greedy tier, used by the greedy backend but deliberately
// NOT by the SAT backend, so SAT genuinely decides the pruner's residue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "src/automata/presburger.hpp"

namespace lcert::solve {

enum class Verdict { kFeasible, kInfeasible, kInconclusive };

class BoxPruner {
 public:
  /// Starts a new vertex. `child_masks` must already be truncated to
  /// state_count bits (FeasibilitySolver::begin does this) and must outlive
  /// every prune()/combinatorial() call of the vertex, as must `raw_supply`
  /// (per state: children whose mask allows it, state_count entries —
  /// FeasibilitySolver computes it once per begin()).
  void begin(std::span<const std::uint64_t> child_masks, std::size_t state_count,
             std::span<const std::size_t> raw_supply);

  /// Stage 1: conclusive-only pre-checks. After kInconclusive the residual
  /// accessors below describe the prepared problem.
  Verdict prune(const IntervalBox& box);

  /// Stage 2: subset-Hall + greedy witness. Only valid immediately after
  /// prune() returned kInconclusive for the same box; mutates the residual
  /// scratch (caps/effective masks double as working state), so read the
  /// residual accessors before calling this.
  Verdict combinatorial(const IntervalBox& box);

  // --- residual problem, valid after prune() == kInconclusive (and before
  // --- combinatorial(), which consumes the scratch) -----------------------
  std::size_t child_count() const noexcept { return masks_.size(); }
  std::size_t state_count() const noexcept { return state_count_; }
  /// Per-child effective mask: feasibility mask restricted to usable states
  /// (cap > 0). Never zero after an inconclusive prune.
  std::span<const std::uint64_t> effective_masks() const noexcept { return eff_; }
  /// Per-state ceiling the flow network would use (min(hi, m); m when
  /// unbounded).
  std::span<const std::int64_t> caps() const noexcept { return cap_; }
  /// Per-state count of children able to take the state.
  std::span<const std::size_t> supply() const noexcept { return supply_; }

 private:
  std::span<const std::uint64_t> masks_;
  std::span<const std::size_t> raw_supply_;
  std::size_t state_count_ = 0;

  std::vector<std::int64_t> cap_;          ///< per state: min(hi, m), m for unbounded
  std::vector<std::uint64_t> eff_;         ///< per child: mask & usable states
  std::vector<std::size_t> supply_;        ///< per state: children able to take it
  std::vector<std::size_t> order_;         ///< children, most-constrained first
  std::vector<std::size_t> greedy_count_;  ///< per demand-subset: sum of lower bounds
  std::vector<std::size_t> hall_count_;    ///< per demand-subset histogram / zeta
  std::uint64_t slack_ = 0;                ///< states whose cap never binds
  std::uint64_t union_eff_ = 0;
  std::size_t lo_sum_ = 0;
  std::size_t confined_ = 0;  ///< children whose every usable state has cap < m
};

}  // namespace lcert::solve
