#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/graph/generators.hpp"
#include "src/obs/metrics.hpp"
#include "src/treedepth/cops_robber.hpp"
#include "src/treedepth/elimination.hpp"
#include "src/treedepth/exact.hpp"
#include "src/treedepth/heuristic.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

TEST(Treedepth, ClosedFormsPaths) {
  // td(P_n) = ceil(log2(n+1)).
  EXPECT_EQ(treedepth_of_path(1), 1u);
  EXPECT_EQ(treedepth_of_path(2), 2u);
  EXPECT_EQ(treedepth_of_path(3), 2u);
  EXPECT_EQ(treedepth_of_path(4), 3u);
  EXPECT_EQ(treedepth_of_path(7), 3u);
  EXPECT_EQ(treedepth_of_path(8), 4u);
}

TEST(Treedepth, ExactMatchesClosedFormOnPaths) {
  for (std::size_t n = 1; n <= 16; ++n)
    EXPECT_EQ(exact_treedepth(make_path(n)), treedepth_of_path(n)) << "P_" << n;
}

TEST(Treedepth, ExactMatchesClosedFormOnCycles) {
  for (std::size_t n = 3; n <= 14; ++n)
    EXPECT_EQ(exact_treedepth(make_cycle(n)), treedepth_of_cycle(n)) << "C_" << n;
}

TEST(Treedepth, ExactOnCliquesAndStars) {
  for (std::size_t n = 1; n <= 8; ++n) EXPECT_EQ(exact_treedepth(make_complete(n)), n);
  for (std::size_t n = 2; n <= 10; ++n) EXPECT_EQ(exact_treedepth(make_star(n)), 2u);
}

TEST(Treedepth, C8Is4AndWithApex5) {
  // The building block of the Theorem 2.5 gadget (Lemma 7.3).
  EXPECT_EQ(exact_treedepth(make_cycle(8)), 4u);
  const Graph g = glue_at_apex({make_cycle(8)});
  // Apex adjacent to one cycle vertex only: treedepth still <= 5 and >= 4.
  const std::size_t td = exact_treedepth(g);
  EXPECT_GE(td, 4u);
  EXPECT_LE(td, 5u);
}

TEST(Treedepth, ExactModelIsValidCoherentAndTight) {
  Rng rng(31);
  for (int trial = 0; trial < 25; ++trial) {
    const Graph g = make_random_connected(4 + rng.index(10), 0.3, rng);
    const auto result = exact_treedepth_with_model(g);
    EXPECT_TRUE(is_valid_model(g, result.model));
    EXPECT_TRUE(is_coherent_model(g, result.model));
    EXPECT_EQ(model_depth(result.model), result.treedepth);
  }
}

TEST(Treedepth, PathModelIsOptimal) {
  for (std::size_t n : {1u, 2u, 3u, 7u, 8u, 15u, 16u, 100u, 1000u}) {
    const RootedTree t = path_model(n);
    EXPECT_TRUE(is_valid_model(make_path(n), t));
    EXPECT_EQ(model_depth(t), treedepth_of_path(n)) << "P_" << n;
  }
}

TEST(Treedepth, CopsAndRobberAgreesWithExact) {
  Rng rng(32);
  for (int trial = 0; trial < 25; ++trial) {
    const Graph g = make_random_connected(4 + rng.index(9), 0.35, rng);
    EXPECT_EQ(cops_and_robber_number(g), exact_treedepth(g));
  }
}

TEST(Treedepth, CopsAndRobberKnownValues) {
  EXPECT_EQ(cops_and_robber_number(make_path(7)), 3u);
  EXPECT_EQ(cops_and_robber_number(make_cycle(8)), 4u);
  EXPECT_EQ(cops_and_robber_number(make_complete(5)), 5u);
}

TEST(Treedepth, TreeStrategyCostEqualsModelDepth) {
  Rng rng(33);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = make_random_connected(4 + rng.index(8), 0.3, rng);
    const auto result = exact_treedepth_with_model(g);
    EXPECT_EQ(simulate_tree_strategy(g, result.model), result.treedepth);
  }
}

TEST(Elimination, ValidAndInvalidModels) {
  const Graph p4 = make_path(4);
  // Balanced model of P4: 1 root, 0 and {2,3} below.
  RootedTree good({1, RootedTree::kNoParent, 1, 2});
  EXPECT_TRUE(is_valid_model(p4, good));
  // A star-shaped "model" rooted at 0 violates edge (2,3).
  RootedTree bad({RootedTree::kNoParent, 0, 0, 0});
  EXPECT_FALSE(is_valid_model(p4, bad));
}

TEST(Elimination, CoherenceDetectionAndRepair) {
  // P7 with the Figure 1 model is coherent.
  const Graph p7 = make_path(7);
  const RootedTree fig1 = path_model(7);
  EXPECT_TRUE(is_coherent_model(p7, fig1));

  // Build a valid but non-coherent model: a path 0-1-2-3 with model
  // root 1, children 0 and 2, and 3 hanging below 0?? — that is invalid.
  // Instead: path 0-1-2-3, model: 2 root; 1 child of 2; 0 child of 1; 3 child
  // of *1* (valid? edge (2,3) needs ancestry: 3 below 1 below 2 — ok;
  // coherence of (1 -> 3): G_3 = {3} must touch 1 — but 3's neighbor is 2.
  const Graph p4 = make_path(4);
  RootedTree askew({1, 2, RootedTree::kNoParent, 1});
  ASSERT_TRUE(is_valid_model(p4, askew));
  EXPECT_FALSE(is_coherent_model(p4, askew));
  const RootedTree fixed = make_coherent(p4, askew);
  EXPECT_TRUE(is_coherent_model(p4, fixed));
  EXPECT_LE(model_depth(fixed), model_depth(askew));
}

TEST(Elimination, ExitVertexTouchesParent) {
  Rng rng(34);
  for (int trial = 0; trial < 20; ++trial) {
    const auto inst = make_bounded_treedepth_graph(25, 4, 0.4, rng);
    const RootedTree t = make_coherent(inst.graph, inst.elimination_tree);
    for (Vertex v = 0; v < t.size(); ++v) {
      if (t.parent(v) == RootedTree::kNoParent) continue;
      const Vertex e = exit_vertex(inst.graph, t, v);
      EXPECT_TRUE(inst.graph.has_edge(e, t.parent(v)));
      EXPECT_TRUE(t.is_ancestor(v, e));
    }
  }
}

TEST(Heuristic, ProducesValidCoherentModels) {
  Rng rng(35);
  for (int trial = 0; trial < 20; ++trial) {
    const Graph g = make_random_connected(30 + rng.index(30), 0.1, rng);
    const RootedTree t = heuristic_elimination_tree(g);
    EXPECT_TRUE(is_valid_model(g, t));
    EXPECT_TRUE(is_coherent_model(g, t));
  }
}

TEST(Heuristic, NearOptimalOnPaths) {
  for (std::size_t n : {15u, 63u, 255u}) {
    const RootedTree t = heuristic_elimination_tree(make_path(n));
    EXPECT_LE(model_depth(t), treedepth_of_path(n) + 1);
  }
}

TEST(Heuristic, WithinBoundOnGeneratedInstances) {
  Rng rng(36);
  for (int trial = 0; trial < 10; ++trial) {
    const auto inst = make_bounded_treedepth_graph(60, 5, 0.3, rng);
    const RootedTree t = heuristic_elimination_tree(inst.graph);
    // Heuristics cannot beat the true treedepth but should stay sane.
    EXPECT_LE(model_depth(t), 60u);
    EXPECT_TRUE(is_valid_model(inst.graph, t));
  }
}

class TreedepthRandomAgreement : public ::testing::TestWithParam<int> {};

TEST_P(TreedepthRandomAgreement, ExactEqualsGameValue) {
  Rng rng(1000 + GetParam());
  const std::size_t n = 4 + rng.index(8);
  const Graph g = make_random_connected(n, 0.25 + 0.05 * (GetParam() % 5), rng);
  const std::size_t td = exact_treedepth(g);
  EXPECT_EQ(cops_and_robber_number(g), td);
  const auto result = exact_treedepth_with_model(g);
  EXPECT_EQ(result.treedepth, td);
  EXPECT_LE(model_depth(result.model), td);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TreedepthRandomAgreement, ::testing::Range(0, 20));

// Reference for exact_treedepth_with_model: the full subset DP, which scores
// every root of every connected subset it reaches and keeps the first
// optimal root of each.
class SubsetDp {
 public:
  using Mask = std::uint32_t;

  explicit SubsetDp(const Graph& g) : adjacency_(g.vertex_count(), 0) {
    for (Vertex v = 0; v < g.vertex_count(); ++v)
      for (Vertex w : g.neighbors(v)) adjacency_[v] |= Mask{1} << w;
  }

  std::size_t solve(Mask mask) {
    if (auto it = memo_.find(mask); it != memo_.end()) return it->second;
    const int popcount = __builtin_popcount(mask);
    if (popcount == 1) {
      memo_[mask] = 1;
      best_root_[mask] = static_cast<Vertex>(__builtin_ctz(mask));
      return 1;
    }
    std::size_t best = static_cast<std::size_t>(popcount);
    Vertex root = static_cast<Vertex>(__builtin_ctz(mask));
    for (Mask rest = mask; rest != 0; rest &= rest - 1) {
      const Vertex v = static_cast<Vertex>(__builtin_ctz(rest));
      std::size_t worst = 0;
      for (Mask comp : components(mask & ~(Mask{1} << v)))
        worst = std::max(worst, solve(comp));
      if (1 + worst < best) {
        best = 1 + worst;
        root = v;
      }
    }
    memo_[mask] = static_cast<std::uint8_t>(best);
    best_root_[mask] = root;
    return best;
  }

  void build_model(Mask mask, std::size_t attach, std::vector<std::size_t>& parent) {
    solve(mask);
    const Vertex v = best_root_.at(mask);
    parent.at(v) = attach;
    for (Mask comp : components(mask & ~(Mask{1} << v))) build_model(comp, v, parent);
  }

 private:
  std::vector<Mask> components(Mask mask) const {
    std::vector<Mask> out;
    Mask todo = mask;
    while (todo != 0) {
      Mask comp = Mask{1} << __builtin_ctz(todo);
      Mask frontier = comp;
      while (frontier != 0) {
        const Vertex v = static_cast<Vertex>(__builtin_ctz(frontier));
        frontier &= frontier - 1;
        const Mask fresh = adjacency_[v] & mask & ~comp;
        comp |= fresh;
        frontier |= fresh;
      }
      out.push_back(comp);
      todo &= ~comp;
    }
    return out;
  }

  std::vector<Mask> adjacency_;
  std::unordered_map<Mask, std::uint8_t> memo_;
  std::unordered_map<Mask, Vertex> best_root_;
};

TreedepthResult subset_dp_with_model(const Graph& g) {
  const std::size_t n = g.vertex_count();
  SubsetDp dp(g);
  const SubsetDp::Mask all = (SubsetDp::Mask{1} << n) - 1;
  const std::size_t td = dp.solve(all);
  std::vector<std::size_t> parent(n, RootedTree::kNoParent);
  dp.build_model(all, RootedTree::kNoParent, parent);
  return {td, make_coherent(g, RootedTree(parent))};
}

void expect_same_as_subset_dp(const Graph& g) {
  const TreedepthResult expected = subset_dp_with_model(g);
  const TreedepthResult got = exact_treedepth_with_model(g);
  ASSERT_EQ(got.treedepth, expected.treedepth);
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    ASSERT_EQ(got.model.parent(v), expected.model.parent(v)) << "v=" << v;
}

// Star on n vertices whose centre is the last vertex, n - 1.
Graph star_centre_last(std::size_t n) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex leaf = 0; leaf + 1 < n; ++leaf) edges.emplace_back(leaf, n - 1);
  return Graph(n, edges);
}

// The branch-and-bound keeps each mask's first optimal root, so the
// treedepth and every parent pointer equal the subset DP's.
TEST(ExactTreedepthIdentity, EveryConnectedGraphOnAtMostSixVertices) {
  for (std::size_t n = 1; n <= 6; ++n) {
    std::vector<std::pair<Vertex, Vertex>> pairs;
    for (Vertex u = 0; u < n; ++u)
      for (Vertex v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
    for (std::uint32_t pick = 0; pick < (std::uint32_t{1} << pairs.size()); ++pick) {
      std::vector<std::pair<Vertex, Vertex>> edges;
      for (std::size_t i = 0; i < pairs.size(); ++i)
        if (pick >> i & 1) edges.push_back(pairs[i]);
      const Graph g(n, edges);
      if (!g.is_connected()) continue;
      ASSERT_NO_FATAL_FAILURE(expect_same_as_subset_dp(g)) << "n=" << n << " edges=" << pick;
    }
  }
}

TEST(ExactTreedepthIdentity, RandomConnectedGraphs) {
  Rng rng(19);
  for (int trial = 0; trial < 120; ++trial) {
    const std::size_t n = 2 + rng.index(13);
    const double p = 0.1 + 0.5 * static_cast<double>(rng.index(1001)) / 1000.0;
    const Graph g = make_random_connected(n, p, rng);
    ASSERT_NO_FATAL_FAILURE(expect_same_as_subset_dp(g)) << "trial=" << trial;
  }
}

TEST(ExactTreedepthIdentity, PathsCyclesCliquesAndStars) {
  for (std::size_t n = 1; n <= 14; ++n) {
    ASSERT_NO_FATAL_FAILURE(expect_same_as_subset_dp(make_path(n))) << "P_" << n;
    ASSERT_NO_FATAL_FAILURE(expect_same_as_subset_dp(make_star(n))) << "star " << n;
    ASSERT_NO_FATAL_FAILURE(expect_same_as_subset_dp(star_centre_last(n)))
        << "star centre last " << n;
  }
  for (std::size_t n = 3; n <= 14; ++n)
    ASSERT_NO_FATAL_FAILURE(expect_same_as_subset_dp(make_cycle(n))) << "C_" << n;
  for (std::size_t n = 1; n <= 10; ++n)
    ASSERT_NO_FATAL_FAILURE(expect_same_as_subset_dp(make_complete(n))) << "K_" << n;
}

TEST(ExactTreedepthIdentity, BoundedTreedepthGraphs) {
  Rng rng(20);
  for (std::size_t t = 2; t <= 5; ++t)
    for (std::size_t n : {6u, 10u, 14u, 16u})
      for (int trial = 0; trial < 2; ++trial) {
        const auto inst = make_bounded_treedepth_graph(n, t, 0.3, rng);
        ASSERT_NO_FATAL_FAILURE(expect_same_as_subset_dp(inst.graph))
            << "t=" << t << " n=" << n << " trial=" << trial;
      }
}

/// Runs f with the metrics registry enabled and returns how many masks the
/// exact solver expanded meanwhile.
template <typename F>
std::uint64_t exact_expansions(F&& f) {
  obs::registry().reset();
  obs::registry().set_enabled(true);
  f();
  const std::uint64_t expanded = obs::registry().counter_value("treedepth/exact_expansions");
  obs::registry().set_enabled(false);
  obs::registry().reset();
  return expanded;
}

// The subset DP expands every connected subset of a star that holds the
// centre: 2^24 - 1 of them at n = 25.
TEST(ExactTreedepthWork, StarWithCentreLastExpandsLinearlyManyMasks) {
  const Graph star = star_centre_last(25);
  std::size_t td = 0;
  const std::uint64_t expanded = exact_expansions([&] { td = exact_treedepth(star); });
  EXPECT_EQ(td, 2u);
  EXPECT_LE(expanded, 25u);
}

TEST(ExactTreedepthWork, PathAndBoundedTreedepthAtTwentyFiveVertices) {
  Rng rng(25);
  const auto inst = make_bounded_treedepth_graph(25, 4, 0.3, rng);
  // The path's bound is the DP's count, one mask per interval (25 * 26 / 2).
  const std::pair<Graph, std::uint64_t> cases[] = {{make_path(25), 325}, {inst.graph, 256}};
  for (const auto& [g, max_expanded] : cases) {
    TreedepthResult result{0, RootedTree()};
    const std::uint64_t expanded =
        exact_expansions([&] { result = exact_treedepth_with_model(g); });
    EXPECT_TRUE(is_valid_model(g, result.model));
    EXPECT_TRUE(is_coherent_model(g, result.model));
    EXPECT_EQ(model_depth(result.model), result.treedepth);
    EXPECT_LE(expanded, max_expanded);
  }
  EXPECT_EQ(exact_treedepth(make_path(25)), treedepth_of_path(25));
  EXPECT_LE(exact_treedepth(inst.graph), 4u);
}

}  // namespace
}  // namespace lcert
