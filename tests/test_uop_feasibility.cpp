// The UOP per-vertex feasibility core (DESIGN.md §12/§15): edge cases of the
// pristine uop_assign_children_masked solver, and the exactness contract of
// the FeasibilitySolver backends — every backend must produce the same
// boolean as brute-force enumeration, and the backend-filtered extraction
// must land on the same box (hence the same assignment) as the pristine scan.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "src/automata/presburger.hpp"
#include "src/automata/uop_automaton.hpp"
#include "src/solve/solver.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

// Brute force over all assignments: each child picks a state from its mask,
// counts must land in the box. The ground truth every path is judged against.
bool brute_force_feasible(const std::vector<std::uint64_t>& masks,
                          const IntervalBox& box, std::size_t k) {
  const std::size_t m = masks.size();
  std::vector<std::size_t> pick(m, 0);
  std::vector<std::size_t> counts(k, 0);
  const auto valid = [&]() {
    for (std::size_t q = 0; q < k; ++q) counts[q] = 0;
    for (std::size_t i = 0; i < m; ++i) ++counts[pick[i]];
    for (std::size_t q = 0; q < k; ++q) {
      if (counts[q] < box.lo[q]) return false;
      if (box.hi[q] != IntervalBox::kUnbounded && counts[q] > box.hi[q]) return false;
    }
    return true;
  };
  // Odometer over the k^m grid, skipping states outside each child's mask.
  while (true) {
    bool in_masks = true;
    for (std::size_t i = 0; i < m; ++i)
      if ((masks[i] >> pick[i] & 1u) == 0) in_masks = false;
    if (in_masks && valid()) return true;
    std::size_t i = 0;
    while (i < m && ++pick[i] == k) pick[i++] = 0;
    if (i == m) return false;
  }
}

std::vector<std::unique_ptr<solve::FeasibilitySolver>> all_backends() {
  std::vector<std::unique_ptr<solve::FeasibilitySolver>> backends;
  for (const auto& info : solve::SolverFactory::registry())
    backends.push_back(solve::SolverFactory::make(info.backend));
  return backends;
}

TEST(UopAssignMasked, EmptyChildSpan) {
  std::vector<std::uint64_t> no_children;
  std::vector<std::size_t> assignment{99};  // must be cleared on success
  IntervalBox relaxed(3);
  EXPECT_TRUE(uop_assign_children_masked(no_children, relaxed, 3, assignment));
  EXPECT_TRUE(assignment.empty());

  IntervalBox demanding(3);
  demanding.lo[1] = 1;  // one child required, none exist
  EXPECT_FALSE(uop_assign_children_masked(no_children, demanding, 3, assignment));
}

TEST(UopAssignMasked, StateCount64Boundary) {
  // Bit 63 is a real state at k == 64; the mask-truncation shift must not
  // overflow. Two children forced onto the two top states by lower bounds.
  const std::size_t k = 64;
  std::vector<std::uint64_t> masks{std::uint64_t{1} << 63,
                                   (std::uint64_t{1} << 63) | (std::uint64_t{1} << 62)};
  IntervalBox box(k);
  box.lo[62] = 1;
  std::vector<std::size_t> assignment;
  ASSERT_TRUE(uop_assign_children_masked(masks, box, k, assignment));
  EXPECT_EQ(assignment[0], 63u);
  EXPECT_EQ(assignment[1], 62u);

  for (const auto& feas : all_backends()) {
    feas->begin(masks, k);
    EXPECT_TRUE(feas->decide(box)) << solve::backend_name(feas->backend());
  }
  box.lo[61] = 1;  // no child can supply state 61
  for (const auto& feas : all_backends()) {
    feas->begin(masks, k);
    EXPECT_FALSE(feas->decide(box)) << solve::backend_name(feas->backend());
  }
  EXPECT_FALSE(uop_assign_children_masked(masks, box, k, assignment));
}

TEST(UopAssignMasked, JustInfeasibleBox) {
  // Three children confined to state 0: hi[0] == 3 fits exactly, 2 is one
  // short; lo_sum == 4 over three children overshoots by one.
  std::vector<std::uint64_t> masks{1, 1, 1};
  std::vector<std::size_t> assignment;
  IntervalBox fits(2);
  fits.hi[0] = 3;
  EXPECT_TRUE(uop_assign_children_masked(masks, fits, 2, assignment));
  IntervalBox tight(2);
  tight.hi[0] = 2;
  EXPECT_FALSE(uop_assign_children_masked(masks, tight, 2, assignment));
  IntervalBox over(2);
  over.lo[0] = 3;
  over.lo[1] = 1;
  EXPECT_FALSE(uop_assign_children_masked(masks, over, 2, assignment));
}

// The exactness contract: for every registered backend, decide() equals
// brute force equals the pristine solver — and when feasible, the pristine
// solver's assignment is valid.
TEST(FeasibilitySolverBackends, RandomizedCrossCheckAgainstBruteForce) {
  Rng rng(20260809);
  const auto backends = all_backends();
  for (int trial = 0; trial < 3000; ++trial) {
    const std::size_t k = rng.uniform(1, 4);
    const std::size_t m = rng.uniform(0, 6);
    std::vector<std::uint64_t> masks(m);
    for (auto& mask : masks)
      mask = rng.uniform(0, (std::uint64_t{1} << k) - 1);  // empty masks included
    // A batch of boxes against one begin(): exercises the pruner's per-vertex
    // state and the SAT backend's per-vertex variable layout.
    std::vector<IntervalBox> boxes;
    const std::size_t box_count = rng.uniform(1, 4);
    for (std::size_t b = 0; b < box_count; ++b) {
      IntervalBox box(k);
      for (std::size_t q = 0; q < k; ++q) {
        box.lo[q] = rng.uniform(0, 3);
        box.hi[q] = rng.coin(0.4) ? IntervalBox::kUnbounded : rng.uniform(0, 4);
      }
      boxes.push_back(box);
    }
    for (const auto& feas : backends) feas->begin(masks, k);
    for (const IntervalBox& box : boxes) {
      const bool truth = brute_force_feasible(masks, box, k);
      std::vector<std::size_t> assignment;
      ASSERT_EQ(uop_assign_children_masked(masks, box, k, assignment), truth)
          << "pristine solver diverged at trial " << trial;
      for (const auto& feas : backends)
        ASSERT_EQ(feas->decide(box), truth)
            << solve::backend_name(feas->backend()) << " diverged at trial " << trial;
      if (truth) {
        std::vector<std::size_t> counts(k, 0);
        ASSERT_EQ(assignment.size(), m);
        for (std::size_t i = 0; i < m; ++i) {
          ASSERT_TRUE(masks[i] >> assignment[i] & 1u);
          ++counts[assignment[i]];
        }
        for (std::size_t q = 0; q < k; ++q) {
          EXPECT_GE(counts[q], box.lo[q]);
          if (box.hi[q] != IntervalBox::kUnbounded) {
            EXPECT_LE(counts[q], box.hi[q]);
          }
        }
      }
    }
  }
  // Every query must have resolved in some stage, and each backend's counts
  // must respect its stage topology: cold-flow answers everything with cold
  // flow builds; greedy never touches the SAT core; sat never runs the
  // combinatorial stage or any flow; nothing counts as warm any more.
  for (const auto& feas : backends) {
    const solve::DecisionCounts& c = feas->counts();
    EXPECT_GT(c.total(), 0u) << solve::backend_name(feas->backend());
    switch (feas->backend()) {
      case solve::Backend::kColdFlow:
        EXPECT_EQ(c.total(), c.flow);
        break;
      case solve::Backend::kGreedy:
        EXPECT_EQ(c.warm + c.sat, 0u);
        break;
      case solve::Backend::kSat:
        EXPECT_EQ(c.greedy + c.warm + c.flow, 0u);
        break;
    }
  }
}

// Box selection is part of the bit-identity contract: the first box any
// backend accepts must be the first box the pristine scan accepts.
TEST(FeasibilitySolverBackends, BackendFilteredExtractionPicksTheSameBox) {
  Rng rng(77);
  const auto backends = all_backends();
  for (int trial = 0; trial < 500; ++trial) {
    const std::size_t k = rng.uniform(1, 4);
    const std::size_t m = rng.uniform(1, 6);
    std::vector<std::uint64_t> masks(m);
    for (auto& mask : masks) mask = rng.uniform(1, (std::uint64_t{1} << k) - 1);
    std::vector<IntervalBox> boxes;
    for (std::size_t b = 0; b < 5; ++b) {
      IntervalBox box(k);
      for (std::size_t q = 0; q < k; ++q) {
        box.lo[q] = rng.uniform(0, 2);
        box.hi[q] = rng.coin(0.4) ? IntervalBox::kUnbounded : rng.uniform(0, 3);
      }
      boxes.push_back(box);
    }
    std::size_t pristine_first = SIZE_MAX;
    std::vector<std::size_t> assignment;
    for (std::size_t b = 0; b < boxes.size(); ++b)
      if (uop_assign_children_masked(masks, boxes[b], k, assignment)) {
        pristine_first = b;
        break;
      }
    for (const auto& feas : backends) {
      feas->begin(masks, k);
      std::size_t backend_first = SIZE_MAX;
      for (std::size_t b = 0; b < boxes.size(); ++b)
        if (feas->decide(boxes[b])) {
          backend_first = b;
          break;
        }
      ASSERT_EQ(backend_first, pristine_first)
          << solve::backend_name(feas->backend()) << " trial " << trial;
    }
  }
}

}  // namespace
}  // namespace lcert
