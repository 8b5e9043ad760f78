// The pluggable FeasibilitySolver seam (DESIGN.md §15).
//
// Every MSO scheme reduces to one per-vertex question — can the children
// pick states from their feasibility masks so the per-state counts land in
// an interval box? — and this interface is where that question is answered.
// The prover, find_accepting_run and the incremental repair path all hold a
// FeasibilitySolver and never know which backend is behind it.
//
// Exactness contract (the load-bearing invariant): decide(box) returns the
// exact boolean of uop_assign_children_masked for the masks passed to
// begin(). Decisions may be produced by any procedure; *assignments* in the
// prover always come from the pristine flow build, so certificates are
// bit-identical across every backend, thread count and memo setting. The
// contract is pinned three ways: the brute-force cross-check tests, the
// registry-wide backend sweep, and the solver-divergence fuzz oracle in
// every trial.
//
// Backends (SolverFactory::make):
//   greedy     shared pruner + combinatorial stage, cold-flow fallback for
//              the inconclusive residue — the default;
//   cold-flow  the pristine reference: one BoundedFlowProblem per query,
//              no pruner — this IS the pre-seam path, kept as the
//              differential baseline;
//   sat        shared pruner + DPLL on the cardinality encoding (sat.hpp);
//              the combinatorial stage is skipped on purpose so the SAT
//              core, not the greedy heuristics, decides the residue. The
//              sat-run audit strategy uses its models as forgery witnesses.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "src/automata/box_index.hpp"
#include "src/automata/presburger.hpp"
#include "src/solve/backend.hpp"
#include "src/solve/pruner.hpp"

namespace lcert::solve {

/// How the queries resolved, by deciding stage (not by backend): `pruned`
/// counts the shared pruner's conclusive answers, `greedy` the combinatorial
/// stage's, `flow` the pristine flow builds, `sat` the DPLL decisions.
/// `warm` is always 0: it counted the warm Dinic tier, which no backend has
/// any more, and stays so reports and bench records keep their field.
/// Classification depends only on the per-vertex query sequence, so totals
/// are thread-count invariant when that sequence is.
struct DecisionCounts {
  std::uint64_t pruned = 0;
  std::uint64_t greedy = 0;
  std::uint64_t warm = 0;
  std::uint64_t flow = 0;
  std::uint64_t sat = 0;

  std::uint64_t total() const noexcept { return pruned + greedy + warm + flow + sat; }

  DecisionCounts& operator+=(const DecisionCounts& o) {
    pruned += o.pruned;
    greedy += o.greedy;
    warm += o.warm;
    flow += o.flow;
    sat += o.sat;
    return *this;
  }
};

/// One instance is single-thread scratch (a prover run owns one): warm
/// across vertices within a run, zero steady-state allocations once warm,
/// not thread-safe.
class FeasibilitySolver {
 public:
  virtual ~FeasibilitySolver() = default;

  virtual Backend backend() const noexcept = 0;

  /// Starts a new vertex: the child feasibility masks every following
  /// decide() call is judged against. Copies the masks (truncated to
  /// state_count bits, which must be <= 64).
  void begin(std::span<const std::uint64_t> child_masks, std::size_t state_count);

  /// Decision for one interval box at the current vertex. Exact: same
  /// boolean as uop_assign_children_masked(child_masks, box, ...).
  virtual bool decide(const IntervalBox& box) = 0;

  /// First feasible box of a DNF at the current vertex, or BoxIndex::npos.
  /// Sweeps the boxes in DNF order and skips, without a decide() call, every
  /// box BoxIndex::may_be_feasible rules out (some lo[q] > supply[q], or
  /// sum(lo) > child_count), so the answer equals a full decide() sweep —
  /// skipped boxes are provably infeasible. Shared by every backend.
  std::size_t decide_first(const BoxIndex& index);

  /// decide() plus a witness (one valid state per child) when feasible. The
  /// witness is any valid assignment, NOT necessarily the pristine flow's
  /// choice — provers that need bit-identical certificates must extract via
  /// uop_assign_children_masked instead; this entry point serves the
  /// forgery search, which only needs validity. The default runs decide()
  /// and then the pristine extraction; the SAT backend reads its model.
  virtual bool decide_witness(const IntervalBox& box, std::vector<std::size_t>& witness);

  const DecisionCounts& counts() const noexcept { return counts_; }

 protected:
  /// Hook after begin() stored the masks (rebuild per-vertex structures).
  virtual void on_begin() {}

  std::span<const std::uint64_t> masks() const noexcept { return masks_; }
  std::size_t state_count() const noexcept { return state_count_; }

 public:
  /// Per-state raw supply for the current vertex: supply()[q] = number of
  /// children whose (truncated) mask allows state q. Computed once in
  /// begin(); feeds decide_first's skip and the pruner's raw-supply early
  /// reject.
  std::span<const std::size_t> supply() const noexcept { return supply_; }

 protected:
  DecisionCounts counts_;

 private:
  std::vector<std::uint64_t> masks_;  ///< truncated to state_count bits
  std::vector<std::size_t> supply_;   ///< per state: children able to take it
  std::size_t state_count_ = 0;
};

/// The backend registry. Fixed table today (the enum is closed), but every
/// consumer goes through make()/info(), so a new decision procedure lands by
/// adding one entry — the prover, the fuzz oracle, the CLI and the audit
/// pick it up without edits.
class SolverFactory {
 public:
  struct BackendInfo {
    Backend backend;
    const char* name;
    const char* description;
  };

  static std::unique_ptr<FeasibilitySolver> make(Backend backend);
  static std::span<const BackendInfo> registry();
};

}  // namespace lcert::solve
