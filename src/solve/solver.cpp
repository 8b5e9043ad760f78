#include "src/solve/solver.hpp"

#include <algorithm>
#include <bit>
#include <numeric>
#include <stdexcept>

#include "src/automata/uop_automaton.hpp"
#include "src/solve/sat.hpp"

namespace lcert::solve {

void FeasibilitySolver::begin(std::span<const std::uint64_t> child_masks,
                              std::size_t state_count) {
  if (state_count > 64)
    throw std::invalid_argument("FeasibilitySolver::begin: state_count > 64");
  state_count_ = state_count;
  // Only bits q < state_count are meaningful; truncating here keeps every
  // popcount / union in the pruner and the backends exact.
  const std::uint64_t keep =
      state_count == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << state_count) - 1);
  masks_.assign(child_masks.begin(), child_masks.end());
  for (std::uint64_t& mask : masks_) mask &= keep;
  supply_.assign(state_count, 0);
  for (const std::uint64_t mask : masks_)
    for (std::uint64_t rest = mask; rest != 0; rest &= rest - 1)
      ++supply_[static_cast<std::size_t>(std::countr_zero(rest))];
  on_begin();
}

std::size_t FeasibilitySolver::decide_first(const BoxIndex& index) {
  if (index.size() == 0) return BoxIndex::npos;
  if (index.arity() != state_count_)
    throw std::invalid_argument("FeasibilitySolver::decide_first: wrong arity");
  for (std::size_t i = 0; i < index.size(); ++i)
    if (index.may_be_feasible(i, supply_.data(), masks_.size()) && decide(index.box(i)))
      return i;
  return BoxIndex::npos;
}

bool FeasibilitySolver::decide_witness(const IntervalBox& box,
                                       std::vector<std::size_t>& witness) {
  if (!decide(box)) return false;
  if (!uop_assign_children_masked(masks_, box, state_count_, witness))
    throw std::logic_error("FeasibilitySolver: decision disagrees with the pristine flow");
  return true;
}

namespace {

// ---------------------------------------------------------------------------
// cold-flow: the pristine reference. One BoundedFlowProblem build per query,
// no pruner — exactly the pre-seam path, kept as the differential baseline
// every other backend is cross-checked against.
// ---------------------------------------------------------------------------
class ColdFlowBackend final : public FeasibilitySolver {
 public:
  Backend backend() const noexcept override { return Backend::kColdFlow; }

  bool decide(const IntervalBox& box) override {
    ++counts_.flow;
    return uop_assign_children_masked(masks(), box, state_count(), assignment_);
  }

  bool decide_witness(const IntervalBox& box,
                      std::vector<std::size_t>& witness) override {
    ++counts_.flow;
    return uop_assign_children_masked(masks(), box, state_count(), witness);
  }

 private:
  std::vector<std::size_t> assignment_;  ///< scratch, reused across calls
};

// ---------------------------------------------------------------------------
// greedy (default): shared pruner + combinatorial stage; whatever stays
// inconclusive falls back to a cold pristine build per query.
// ---------------------------------------------------------------------------
class GreedyBackend final : public FeasibilitySolver {
 public:
  Backend backend() const noexcept override { return Backend::kGreedy; }

  bool decide(const IntervalBox& box) override {
    switch (pruner_.prune(box)) {
      case Verdict::kFeasible: ++counts_.pruned; return true;
      case Verdict::kInfeasible: ++counts_.pruned; return false;
      case Verdict::kInconclusive: break;
    }
    switch (pruner_.combinatorial(box)) {
      case Verdict::kFeasible: ++counts_.greedy; return true;
      case Verdict::kInfeasible: ++counts_.greedy; return false;
      case Verdict::kInconclusive: break;
    }
    ++counts_.flow;
    return uop_assign_children_masked(masks(), box, state_count(), assignment_);
  }

 protected:
  void on_begin() override { pruner_.begin(masks(), state_count(), supply()); }

 private:
  BoxPruner pruner_;
  std::vector<std::size_t> assignment_;
};

// ---------------------------------------------------------------------------
// sat: shared pruner, then MiniCdcl on the cardinality encoding. The
// combinatorial stage is skipped on purpose — the point of this backend is
// differential coverage, so the SAT core should decide everything the cheap
// pruner cannot, not inherit the greedy heuristics' answers.
//
// Encoding: one variable per (child, usable state in the child's effective
// mask); exactly-one cardinality per child; per state q a cardinality
// lo_q <= #true <= cap_q over the child variables that can take q. Variables
// are allocated most-constrained child first, so MiniCdcl's lowest-index
// branching rule turns into a real ordering heuristic.
// ---------------------------------------------------------------------------
class SatBackend final : public FeasibilitySolver {
 public:
  Backend backend() const noexcept override { return Backend::kSat; }

  bool decide(const IntervalBox& box) override {
    model_valid_ = false;
    switch (pruner_.prune(box)) {
      case Verdict::kFeasible: ++counts_.pruned; return true;
      case Verdict::kInfeasible: ++counts_.pruned; return false;
      case Verdict::kInconclusive: break;
    }
    return sat_decide(box);
  }

  bool decide_witness(const IntervalBox& box,
                      std::vector<std::size_t>& witness) override {
    if (!decide(box)) return false;
    if (model_valid_) {
      // Read the model: exactly-one per child guarantees full coverage.
      witness.assign(masks().size(), SIZE_MAX);
      for (std::size_t v = 0; v < var_child_.size(); ++v)
        if (sat_.value(v)) witness[var_child_[v]] = var_state_[v];
      for (std::size_t state : witness)
        if (state == SIZE_MAX)
          throw std::logic_error("SatBackend: model left a child unassigned");
      return true;
    }
    // The pruner settled it without a model; extract via the pristine flow.
    if (!uop_assign_children_masked(masks(), box, state_count(), witness))
      throw std::logic_error("SatBackend: pruner disagrees with the pristine flow");
    return true;
  }

 protected:
  void on_begin() override { pruner_.begin(masks(), state_count(), supply()); }

 private:
  bool sat_decide(const IntervalBox& box) {
    ++counts_.sat;
    const auto eff = pruner_.effective_masks();
    const auto caps = pruner_.caps();
    const std::size_t m = pruner_.child_count();
    const std::size_t k = pruner_.state_count();

    sat_.reset();
    var_child_.clear();
    var_state_.clear();
    state_vars_.assign(k, {});
    child_order_.resize(m);
    std::iota(child_order_.begin(), child_order_.end(), std::size_t{0});
    std::sort(child_order_.begin(), child_order_.end(),
              [&eff](std::size_t x, std::size_t y) {
                const int px = std::popcount(eff[x]);
                const int py = std::popcount(eff[y]);
                return px != py ? px < py : x < y;
              });

    for (std::size_t i : child_order_) {
      child_vars_.clear();
      for (std::uint64_t rest = eff[i]; rest != 0; rest &= rest - 1) {
        const std::size_t q = static_cast<std::size_t>(std::countr_zero(rest));
        const std::size_t var = sat_.new_var();
        var_child_.push_back(i);
        var_state_.push_back(q);
        child_vars_.push_back(var);
        state_vars_[q].push_back(var);
      }
      sat_.add_cardinality(child_vars_, 1, 1);
    }
    for (std::size_t q = 0; q < k; ++q) {
      if (state_vars_[q].empty()) continue;  // lo_q == 0 here (supply check)
      sat_.add_cardinality(state_vars_[q], box.lo[q],
                           static_cast<std::size_t>(caps[q]));
    }

    model_valid_ = sat_.solve();
    return model_valid_;
  }

  BoxPruner pruner_;
  MiniCdcl sat_;
  bool model_valid_ = false;
  // Variable index -> (child, state), plus encode scratch reused per query.
  std::vector<std::size_t> var_child_;
  std::vector<std::size_t> var_state_;
  std::vector<std::vector<std::size_t>> state_vars_;
  std::vector<std::size_t> child_vars_;
  std::vector<std::size_t> child_order_;
};

constexpr SolverFactory::BackendInfo kRegistry[] = {
    {Backend::kGreedy, "greedy",
     "shared pruner + combinatorial decisions, cold pristine-flow fallback (default)"},
    {Backend::kColdFlow, "cold-flow",
     "pristine bounded-flow build per query (the differential reference)"},
    {Backend::kSat, "sat",
     "shared pruner + DPLL on the box-interval cardinality encoding"},
};

}  // namespace

std::unique_ptr<FeasibilitySolver> SolverFactory::make(Backend backend) {
  switch (backend) {
    case Backend::kColdFlow: return std::make_unique<ColdFlowBackend>();
    case Backend::kGreedy: return std::make_unique<GreedyBackend>();
    case Backend::kSat: return std::make_unique<SatBackend>();
  }
  throw std::invalid_argument("SolverFactory::make: unknown backend");
}

std::span<const SolverFactory::BackendInfo> SolverFactory::registry() {
  return kRegistry;
}

}  // namespace lcert::solve
