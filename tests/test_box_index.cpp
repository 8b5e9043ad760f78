// BoxIndex contract (DESIGN.md §16): first_containing over the SoA rows must
// answer with the first box whose IntervalBox::contains accepts the probe,
// and decide_first's necessary-condition skip must preserve the first
// feasible box under every solver backend. These tests pin the contract on
// random box sets, on every library automaton, on the MSO schemes' own box
// lists, and on the degenerate cases (empty index, arity mismatch).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "src/automata/box_index.hpp"
#include "src/automata/library.hpp"
#include "src/automata/presburger.hpp"
#include "src/automata/uop_automaton.hpp"
#include "src/schemes/registry.hpp"
#include "src/solve/solver.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

std::vector<IntervalBox> random_boxes(Rng& rng, std::size_t n, std::size_t k) {
  std::vector<IntervalBox> boxes;
  boxes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    IntervalBox b(k);
    for (std::size_t q = 0; q < k; ++q) {
      b.lo[q] = rng.index(6);
      b.hi[q] = rng.coin(0.3) ? IntervalBox::kUnbounded
                              : b.lo[q] + rng.index(6);
    }
    boxes.push_back(std::move(b));
  }
  return boxes;
}

/// The reference the SoA sweep is held to: IntervalBox::contains in DNF order.
std::size_t first_containing_box(const BoxIndex& idx,
                                 const std::vector<std::size_t>& counts) {
  for (std::size_t i = 0; i < idx.size(); ++i)
    if (idx.box(i).contains(counts)) return i;
  return BoxIndex::npos;
}

TEST(BoxIndex, EmptyIndexAnswersNpos) {
  const BoxIndex idx{std::vector<IntervalBox>{}};
  EXPECT_EQ(idx.size(), 0u);
  const std::size_t counts[1] = {0};
  const auto hit = idx.first_containing(counts, 0);
  EXPECT_EQ(hit.index, BoxIndex::npos);
  EXPECT_EQ(hit.probes, 0u);
}

TEST(BoxIndex, ArityMismatchThrows) {
  const BoxIndex idx(std::vector<IntervalBox>{IntervalBox(3)});
  const std::size_t counts[2] = {0, 0};
  EXPECT_THROW(idx.first_containing(counts, 2), std::invalid_argument);
  std::vector<IntervalBox> mixed{IntervalBox(2), IntervalBox(3)};
  EXPECT_THROW(BoxIndex{std::move(mixed)}, std::invalid_argument);
}

TEST(BoxIndex, FirstContainingMatchesLinearOnRandomSets) {
  Rng rng(913);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t k = 1 + rng.index(6);
    const std::size_t n = 1 + rng.index(80);
    const BoxIndex idx(random_boxes(rng, n, k));
    std::vector<std::size_t> counts(k);
    for (int probe = 0; probe < 30; ++probe) {
      for (std::size_t q = 0; q < k; ++q) counts[q] = rng.index(14);
      const auto hit = idx.first_containing(counts.data(), k);
      EXPECT_EQ(hit.index, first_containing_box(idx, counts)) << "trial " << trial;
      // A linear sweep tests every box up to the hit, or all of them.
      EXPECT_EQ(hit.probes, hit.index == BoxIndex::npos ? idx.size() : hit.index + 1);
    }
  }
}

TEST(BoxIndex, DecideFirstMatchesFullSweepOnEveryBackend) {
  Rng rng(2024);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t k = 1 + rng.index(5);
    const std::size_t n = 1 + rng.index(20);
    const BoxIndex idx(random_boxes(rng, n, k));
    const std::size_t m = rng.index(5);
    const std::uint64_t keep = (std::uint64_t{1} << k) - 1;
    std::vector<std::uint64_t> masks(m);
    for (auto& mask : masks) mask = rng.uniform(0, keep);

    for (const auto& info : solve::SolverFactory::registry()) {
      const auto feas = solve::SolverFactory::make(info.backend);
      feas->begin(masks, k);
      std::size_t sweep_first = BoxIndex::npos;
      for (std::size_t i = 0; i < idx.size(); ++i)
        if (feas->decide(idx.box(i))) {
          sweep_first = i;
          break;
        }
      EXPECT_EQ(feas->decide_first(idx), sweep_first)
          << info.name << " trial " << trial;
    }
  }
}

// The predicate behind decide_first's skip: a box it rules out must be one
// the exact decision rejects, on every random vertex.
TEST(BoxIndex, MayBeFeasibleNeverSkipsAFeasibleBox) {
  Rng rng(5150);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t k = 1 + rng.index(4);
    const std::size_t n = 1 + rng.index(30);
    const BoxIndex idx(random_boxes(rng, n, k));
    const std::size_t m = rng.index(5);
    const std::uint64_t keep = (std::uint64_t{1} << k) - 1;
    std::vector<std::uint64_t> masks(m);
    for (auto& mask : masks) mask = rng.uniform(0, keep);

    const auto feas = solve::SolverFactory::make(solve::Backend::kColdFlow);
    feas->begin(masks, k);
    for (std::size_t i = 0; i < idx.size(); ++i) {
      if (!idx.may_be_feasible(i, feas->supply().data(), m)) {
        EXPECT_FALSE(feas->decide(idx.box(i))) << "feasible box " << i << " skipped";
      }
    }
  }
}

TEST(BoxIndex, SupplyCountsChildrenPerState) {
  const auto feas = solve::SolverFactory::make(solve::kDefaultBackend);
  const std::vector<std::uint64_t> masks = {0b101, 0b011, 0b100};
  feas->begin(masks, 3);
  const auto supply = feas->supply();
  ASSERT_EQ(supply.size(), 3u);
  EXPECT_EQ(supply[0], 2u);
  EXPECT_EQ(supply[1], 1u);
  EXPECT_EQ(supply[2], 2u);
}

// Every library automaton, every state: SoA answers equal the IntervalBox
// sweep on an exhaustive small-count grid — the exact probe pattern the
// verifier feeds the index.
TEST(BoxIndex, LibraryAutomataExhaustiveFirstMatchIdentity) {
  for (const auto& entry : standard_tree_automata()) {
    const std::size_t k = entry.automaton.state_count;
    for (std::size_t q = 0; q < k; ++q) {
      const BoxIndex idx(entry.automaton.transition(q).to_boxes(k));
      std::vector<std::size_t> counts(k, 0);
      std::size_t probes_checked = 0;
      while (true) {
        ASSERT_EQ(idx.first_containing(counts.data(), k).index,
                  first_containing_box(idx, counts))
            << entry.name << " state " << q << " probe " << probes_checked;
        ++probes_checked;
        std::size_t d = 0;  // odometer over [0,5]^k, capped to bound runtime
        while (d < k && counts[d] == 5) counts[d++] = 0;
        if (d == k || probes_checked > 50000) break;
        ++counts[d];
      }
    }
  }
}

// The run-forgery surface hands its consumers (the sat-run audit, the
// box-index-divergence oracle) the scheme's own box lists instead of a fresh
// to_boxes() expansion; they must be the same lists, state by state.
TEST(BoxIndex, MsoSurfaceBoxesEqualToBoxes) {
  std::size_t surfaces = 0;
  for (const auto& entry : scheme_registry()) {
    const auto scheme = entry.make();
    const auto surface = scheme->run_forgery_surface();
    if (!surface.has_value()) continue;
    ++surfaces;
    const UOPAutomaton& a = *surface->automaton;
    const std::size_t k = a.state_count;
    ASSERT_EQ(surface->boxes.size(), k) << entry.key;
    for (std::size_t q = 0; q < k; ++q) {
      const std::vector<IntervalBox> expected = a.transition(q).to_boxes(k);
      const std::vector<IntervalBox>& got = surface->boxes[q].boxes();
      ASSERT_EQ(got.size(), expected.size()) << entry.key << " state " << q;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].lo, expected[i].lo) << entry.key << " state " << q << " box " << i;
        EXPECT_EQ(got[i].hi, expected[i].hi) << entry.key << " state " << q << " box " << i;
      }
    }
  }
  EXPECT_EQ(surfaces, 3u);  // mso-perfect-matching, mso-caterpillar, mso-leaves4
}

}  // namespace
}  // namespace lcert
