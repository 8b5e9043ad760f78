#include "src/graph/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_set>

#include "src/graph/connectivity.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/minors.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/graph/tree_iso.hpp"
#include "src/treedepth/exact.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

TEST(Graph, BasicAccessors) {
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}});
  EXPECT_EQ(g.vertex_count(), 4u);
  EXPECT_EQ(g.edge_count(), 4u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.is_connected());
}

TEST(Graph, RejectsLoopsAndDuplicates) {
  EXPECT_THROW(Graph(2, {{0, 0}}), std::invalid_argument);
  EXPECT_THROW(Graph(2, {{0, 1}, {1, 0}}), std::invalid_argument);
  EXPECT_THROW(Graph(2, {{0, 2}}), std::out_of_range);
}

// The CSR layout's edge cases: every single-fault input throws its documented
// type, lists come out sorted, and isolated vertices and the empty graph have
// empty lists.
TEST(Graph, CsrEdgeCases) {
  EXPECT_THROW(Graph(3, {{0, 1}, {2, 2}}), std::invalid_argument);  // loop
  EXPECT_THROW(Graph(3, {{0, 1}, {1, 2}, {2, 1}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{1, 2}, {1, 2}}), std::invalid_argument);
  EXPECT_THROW(Graph(3, {{0, 1}, {3, 1}}), std::out_of_range);

  const Graph star(4, {{0, 3}, {0, 1}, {2, 0}});
  EXPECT_EQ(std::vector<Vertex>(star.neighbors(0).begin(), star.neighbors(0).end()),
            (std::vector<Vertex>{1, 2, 3}));
  EXPECT_EQ(star.offsets().size(), 5u);
  EXPECT_EQ(star.adjacency().size(), 6u);
  EXPECT_THROW(star.neighbors(4), std::out_of_range);
  EXPECT_THROW(star.degree(4), std::out_of_range);
  EXPECT_THROW(star.has_edge(4, 0), std::out_of_range);
  EXPECT_FALSE(star.has_edge(0, 4));

  const Graph sparse(5, {{1, 3}});
  EXPECT_EQ(sparse.edge_count(), 1u);
  for (Vertex v : {0u, 2u, 4u}) {
    EXPECT_EQ(sparse.degree(v), 0u);
    EXPECT_TRUE(sparse.neighbors(v).empty());
  }
  EXPECT_EQ(sparse.edges(), (std::vector<std::pair<Vertex, Vertex>>{{1, 3}}));
  EXPECT_FALSE(sparse.is_connected());

  const Graph empty;
  EXPECT_EQ(empty.vertex_count(), 0u);
  EXPECT_EQ(empty.edge_count(), 0u);
  EXPECT_TRUE(empty.adjacency().empty());
  EXPECT_TRUE(empty.edges().empty());
  EXPECT_FALSE(empty.is_connected());
  EXPECT_THROW(empty.neighbors(0), std::out_of_range);
}

TEST(Graph, IdAssignment) {
  Graph g(3, {{0, 1}, {1, 2}});
  g.set_ids({10, 20, 30});
  EXPECT_EQ(g.id(1), 20u);
  EXPECT_EQ(g.vertex_with_id(30), 2u);
  EXPECT_THROW(g.set_ids({1, 1, 2}), std::invalid_argument);
  EXPECT_THROW(g.set_ids({0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(g.vertex_with_id(99), std::out_of_range);
}

TEST(Graph, RandomIdsAreDistinctAndPolynomial) {
  Rng rng(5);
  Graph g = make_random_tree(50, rng);
  assign_random_ids(g, rng);
  std::set<VertexId> ids;
  for (Vertex v = 0; v < 50; ++v) {
    ids.insert(g.id(v));
    EXPECT_GE(g.id(v), 1u);
    EXPECT_LE(g.id(v), 50u * 50u + 1);
  }
  EXPECT_EQ(ids.size(), 50u);
}

TEST(Graph, InducedSubgraph) {
  Graph g = make_cycle(6);
  Graph sub = g.induced({0, 1, 2, 3});
  EXPECT_EQ(sub.vertex_count(), 4u);
  EXPECT_EQ(sub.edge_count(), 3u);  // the path 0-1-2-3
  EXPECT_EQ(sub.id(0), g.id(0));

  g.set_ids({60, 50, 40, 30, 20, 10});
  const Graph reordered = g.induced({5, 0, 3});  // keep order defines new indices
  EXPECT_EQ(reordered.edges(), (std::vector<std::pair<Vertex, Vertex>>{{0, 1}}));
  EXPECT_EQ(reordered.id(0), 10u);
  EXPECT_EQ(reordered.id(2), 30u);
  EXPECT_THROW(g.induced({0, 6}), std::out_of_range);
  EXPECT_THROW(g.induced({1, 2, 1}), std::invalid_argument);
}

// Reference for assign_random_ids: the one-at-a-time rejection loop, a draw
// kept unless a hash set has seen its value.
std::vector<VertexId> hash_set_random_ids(std::size_t n, Rng& rng) {
  const std::uint64_t range = static_cast<std::uint64_t>(n) * n + 1;
  std::unordered_set<VertexId> chosen;
  std::vector<VertexId> ids;
  while (ids.size() < n) {
    const VertexId candidate = rng.uniform(1, range);
    if (chosen.insert(candidate).second) ids.push_back(candidate);
  }
  return ids;
}

// Sorting instead of hashing keeps every seeded instance's IDs: same IDs,
// same order, same RNG draws. n = 2 and 3 draw from 5 and 10 values, so
// repeats (and second and third rounds) are common.
TEST(Graph, RandomIdsMatchTheHashSetLoop) {
  for (std::size_t n : {1u, 2u, 3u, 5u, 8u, 24u, 1000u})
    for (std::uint64_t seed = 0; seed < 200; ++seed) {
      Rng fast(seed), reference(seed);
      Graph g = make_path(n);
      assign_random_ids(g, fast);
      const std::vector<VertexId> expected = hash_set_random_ids(n, reference);
      ASSERT_EQ(std::vector<VertexId>(g.ids().begin(), g.ids().end()), expected)
          << "n=" << n << " seed=" << seed;
      ASSERT_TRUE(fast.engine() == reference.engine()) << "n=" << n << " seed=" << seed;
    }
}

TEST(Graph, BfsDistances) {
  Graph g = make_path(5);
  const auto dist = g.bfs_distances(0);
  for (std::size_t i = 0; i < 5; ++i) EXPECT_EQ(dist[i], i);
}

TEST(Generators, PathCycleStarComplete) {
  EXPECT_EQ(make_path(7).edge_count(), 6u);
  EXPECT_EQ(make_cycle(7).edge_count(), 7u);
  EXPECT_EQ(make_star(7).edge_count(), 6u);
  EXPECT_EQ(make_complete(7).edge_count(), 21u);
  EXPECT_EQ(make_complete_bipartite(3, 4).edge_count(), 12u);
  EXPECT_THROW(make_cycle(2), std::invalid_argument);
}

TEST(Generators, Caterpillar) {
  const Graph c = make_caterpillar(4, 2);
  EXPECT_EQ(c.vertex_count(), 12u);
  EXPECT_EQ(c.edge_count(), 11u);
  EXPECT_TRUE(c.is_connected());
}

// Reference for make_random_tree: the quadratic Prüfer decode, each step
// rescanning from vertex 0 for the smallest unused leaf.
Graph quadratic_random_tree(std::size_t n, Rng& rng) {
  if (n == 1) return Graph(1, {});
  if (n == 2) return Graph(2, {{0, 1}});
  std::vector<std::size_t> prufer(n - 2);
  for (auto& x : prufer) x = rng.index(n);
  std::vector<std::size_t> degree(n, 1);
  for (std::size_t x : prufer) ++degree[x];
  std::vector<std::pair<Vertex, Vertex>> edges;
  std::vector<bool> used(n, false);
  for (std::size_t code : prufer) {
    std::size_t leaf = SIZE_MAX;
    for (std::size_t v = 0; v < n; ++v)
      if (degree[v] == 1 && !used[v]) {
        leaf = v;
        break;
      }
    edges.emplace_back(leaf, code);
    used[leaf] = true;
    --degree[code];
  }
  std::vector<std::size_t> last;
  for (std::size_t v = 0; v < n; ++v)
    if (degree[v] == 1 && !used[v]) last.push_back(v);
  edges.emplace_back(last.at(0), last.at(1));
  return Graph(n, edges);
}

// The linear decode builds the same tree from the same draws, so every
// seeded instance (golden corpus, benchmarks) is unchanged.
TEST(Generators, LinearPruferDecodeMatchesTheQuadraticOne) {
  std::vector<std::size_t> sizes{31, 100, 1000, 4097};
  for (std::size_t n = 1; n <= 10; ++n) sizes.push_back(n);
  for (std::size_t n : sizes)
    for (std::uint64_t seed = 0; seed < 50; ++seed) {
      Rng fast(seed), reference(seed);
      const Graph t = make_random_tree(n, fast);
      const Graph expected = quadratic_random_tree(n, reference);
      ASSERT_EQ(t.edges(), expected.edges()) << "n=" << n << " seed=" << seed;
      ASSERT_TRUE(fast.engine() == reference.engine()) << "n=" << n << " seed=" << seed;
    }
}

TEST(Generators, RandomTreeIsTree) {
  Rng rng(42);
  for (std::size_t n : {1u, 2u, 3u, 10u, 57u, 200u}) {
    const Graph t = make_random_tree(n, rng);
    EXPECT_EQ(t.vertex_count(), n);
    EXPECT_EQ(t.edge_count(), n - 1);
    EXPECT_TRUE(t.is_connected());
  }
}

TEST(Generators, RandomRootedTreeRespectsDepth) {
  Rng rng(9);
  for (int trial = 0; trial < 20; ++trial) {
    const RootedTree t = make_random_rooted_tree(30, 4, rng);
    EXPECT_EQ(t.size(), 30u);
    EXPECT_LE(t.height(), 4u);
  }
}

TEST(Generators, BoundedTreedepthInstanceIsValid) {
  Rng rng(10);
  for (int trial = 0; trial < 20; ++trial) {
    const auto inst = make_bounded_treedepth_graph(40, 5, 0.3, rng);
    EXPECT_TRUE(inst.graph.is_connected());
    EXPECT_LE(inst.elimination_tree.height() + 1, 5u);
    // Every edge must join an ancestor-descendant pair.
    for (auto [u, v] : inst.graph.edges())
      EXPECT_TRUE(inst.elimination_tree.is_ancestor(u, v) ||
                  inst.elimination_tree.is_ancestor(v, u));
  }
}

TEST(RootedTree, BasicStructure) {
  RootedTree t({RootedTree::kNoParent, 0, 0, 1, 1});
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.depth(4), 2u);
  EXPECT_EQ(t.height(), 2u);
  EXPECT_TRUE(t.is_ancestor(0, 4));
  EXPECT_TRUE(t.is_ancestor(1, 3));
  EXPECT_FALSE(t.is_ancestor(2, 3));
  EXPECT_EQ(t.ancestors(3), (std::vector<std::size_t>{3, 1, 0}));
  EXPECT_EQ(t.subtree(1).size(), 3u);
}

TEST(RootedTree, RejectsMalformedParentArrays) {
  EXPECT_THROW(RootedTree({0, RootedTree::kNoParent}), std::invalid_argument);  // self-loop root
  EXPECT_THROW(RootedTree({RootedTree::kNoParent, RootedTree::kNoParent}),
               std::invalid_argument);  // two roots
  EXPECT_THROW(RootedTree({1, 0}), std::invalid_argument);  // cycle
  EXPECT_THROW(RootedTree(std::vector<std::size_t>{}), std::invalid_argument);
}

TEST(RootedTree, GraphRoundTrip) {
  Rng rng(3);
  const Graph g = make_random_tree(25, rng);
  const RootedTree t = RootedTree::from_graph(g, 7);
  EXPECT_EQ(t.root(), 7u);
  const Graph back = t.to_graph();
  EXPECT_EQ(back.edge_count(), g.edge_count());
  for (auto [u, v] : g.edges()) EXPECT_TRUE(back.has_edge(u, v));
}

TEST(Connectivity, Components) {
  // Two components by construction is impossible via Graph (connected
  // builders), so build manually.
  Graph g(5, {{0, 1}, {2, 3}});
  const auto comp = connected_components(g);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
  EXPECT_NE(comp[4], comp[2]);
}

TEST(Connectivity, CutVerticesOnPath) {
  const auto cuts = cut_vertices(make_path(5));
  EXPECT_FALSE(cuts[0]);
  EXPECT_TRUE(cuts[1]);
  EXPECT_TRUE(cuts[2]);
  EXPECT_TRUE(cuts[3]);
  EXPECT_FALSE(cuts[4]);
}

TEST(Connectivity, CutVerticesOnCycleNone) {
  const auto cuts = cut_vertices(make_cycle(6));
  for (bool b : cuts) EXPECT_FALSE(b);
}

TEST(Connectivity, BlockCutOfTwoTriangles) {
  // Two triangles sharing vertex 2.
  Graph g(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
  const auto bc = block_cut_decomposition(g);
  EXPECT_EQ(bc.blocks.size(), 2u);
  EXPECT_TRUE(bc.is_cut_vertex[2]);
  EXPECT_EQ(bc.blocks_of[2].size(), 2u);
  for (const auto& block : bc.blocks) EXPECT_EQ(block.size(), 3u);
}

TEST(Connectivity, BlocksOfTreeAreEdges) {
  Rng rng(8);
  const Graph t = make_random_tree(20, rng);
  const auto bc = block_cut_decomposition(t);
  EXPECT_EQ(bc.blocks.size(), 19u);
  for (const auto& block : bc.blocks) EXPECT_EQ(block.size(), 2u);
}

TEST(TreeIso, AhuRoundTrip) {
  Rng rng(15);
  for (int trial = 0; trial < 50; ++trial) {
    const RootedTree t = make_random_rooted_tree(1 + rng.index(30), 5, rng);
    const std::string enc = ahu_encoding(t);
    const RootedTree back = tree_from_ahu(enc);
    EXPECT_EQ(back.size(), t.size());
    EXPECT_EQ(ahu_encoding(back), enc);
  }
}

TEST(TreeIso, IsomorphicUnderRelabeling) {
  Rng rng(16);
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = 2 + rng.index(20);
    const Graph t = make_random_tree(n, rng);
    // Relabel the vertices with a random permutation.
    const auto perm = rng.permutation(n);
    std::vector<std::pair<Vertex, Vertex>> edges;
    for (auto [u, v] : t.edges()) edges.emplace_back(perm[u], perm[v]);
    const Graph relabeled(n, edges);
    EXPECT_TRUE(unrooted_trees_isomorphic(t, relabeled));
  }
}

TEST(TreeIso, NonIsomorphicDetected) {
  EXPECT_FALSE(unrooted_trees_isomorphic(make_path(5), make_star(5)));
  EXPECT_FALSE(unrooted_trees_isomorphic(make_path(4), make_path(5)));
}

TEST(TreeIso, Centers) {
  EXPECT_EQ(tree_centers(make_path(5)), (std::vector<Vertex>{2}));
  EXPECT_EQ(tree_centers(make_path(6)).size(), 2u);
  EXPECT_EQ(tree_centers(make_star(9)), (std::vector<Vertex>{0}));
  EXPECT_EQ(tree_centers(Graph(1, {})), (std::vector<Vertex>{0}));
}

TEST(TreeIso, FixedPointFreeAutomorphism) {
  // Even path: reversal is FPF.
  EXPECT_TRUE(has_fixed_point_free_automorphism(make_path(6)));
  // Odd path: center is fixed.
  EXPECT_FALSE(has_fixed_point_free_automorphism(make_path(5)));
  // Star: center is fixed.
  EXPECT_FALSE(has_fixed_point_free_automorphism(make_star(6)));
  // Two stars joined at their centers: swap is FPF.
  Graph g(8, {{0, 1}, {0, 2}, {0, 3}, {4, 5}, {4, 6}, {4, 7}, {0, 4}});
  EXPECT_TRUE(has_fixed_point_free_automorphism(g));
}

TEST(TreeIso, FpfWitnessIsValidAutomorphism) {
  Rng rng(17);
  for (int trial = 0; trial < 40; ++trial) {
    // Build a tree guaranteed to have an FPF automorphism: two copies of a
    // random rooted tree joined by an edge between the roots.
    const std::size_t half = 1 + rng.index(12);
    const Graph t = make_random_tree(half, rng);
    std::vector<std::pair<Vertex, Vertex>> edges;
    for (auto [u, v] : t.edges()) {
      edges.emplace_back(u, v);
      edges.emplace_back(u + half, v + half);
    }
    edges.emplace_back(0, half);
    const Graph doubled(2 * half, edges);
    ASSERT_TRUE(has_fixed_point_free_automorphism(doubled));
    const auto sigma = fixed_point_free_automorphism(doubled);
    ASSERT_EQ(sigma.size(), doubled.vertex_count());
    for (Vertex v = 0; v < doubled.vertex_count(); ++v) EXPECT_NE(sigma[v], v);
    for (auto [u, v] : doubled.edges()) EXPECT_TRUE(doubled.has_edge(sigma[u], sigma[v]));
  }
}

TEST(Minors, LongestPathOnKnownGraphs) {
  EXPECT_EQ(longest_path_order(make_path(6)), 6u);
  EXPECT_EQ(longest_path_order(make_cycle(6)), 6u);
  EXPECT_EQ(longest_path_order(make_star(6)), 3u);
  EXPECT_EQ(longest_path_order(make_complete(5)), 5u);
}

TEST(Minors, PathMinor) {
  EXPECT_TRUE(has_path_minor(make_path(6), 6));
  EXPECT_FALSE(has_path_minor(make_path(6), 7));
  EXPECT_FALSE(has_path_minor(make_star(10), 4));
  EXPECT_TRUE(has_path_minor(make_star(10), 3));
}

TEST(Minors, LongestCycle) {
  EXPECT_EQ(longest_cycle_order(make_path(6)), 0u);
  EXPECT_EQ(longest_cycle_order(make_cycle(8)), 8u);
  EXPECT_EQ(longest_cycle_order(make_complete(5)), 5u);
  // Two triangles sharing a vertex: longest cycle is 3.
  Graph g(5, {{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}});
  EXPECT_EQ(longest_cycle_order(g), 3u);
}

TEST(Minors, CycleMinor) {
  EXPECT_TRUE(has_cycle_minor(make_cycle(8), 8));
  EXPECT_TRUE(has_cycle_minor(make_cycle(8), 5));
  EXPECT_FALSE(has_cycle_minor(make_cycle(8), 9));
  EXPECT_FALSE(has_cycle_minor(make_path(9), 3));
}

TEST(Generators, SpiderAndBinaryTree) {
  const Graph spider = make_spider(3, 2);
  EXPECT_EQ(spider.vertex_count(), 7u);
  EXPECT_EQ(spider.degree(0), 3u);
  EXPECT_TRUE(spider.is_connected());
  EXPECT_EQ(longest_path_order(spider), 5u);  // leg + center + leg

  const Graph bt = make_complete_binary_tree(4);
  EXPECT_EQ(bt.vertex_count(), 15u);
  EXPECT_EQ(bt.edge_count(), 14u);
  EXPECT_EQ(bt.degree(0), 2u);
  std::size_t leaves = 0;
  for (Vertex v = 0; v < bt.vertex_count(); ++v) leaves += bt.degree(v) == 1 ? 1 : 0;
  EXPECT_EQ(leaves, 8u);
  // Complete binary tree with L levels has treedepth exactly L.
  EXPECT_EQ(exact_treedepth(bt), 4u);
}

TEST(Generators, GlueAtApex) {
  const Graph g = glue_at_apex({make_cycle(4), make_cycle(5)});
  EXPECT_EQ(g.vertex_count(), 10u);
  EXPECT_EQ(g.edge_count(), 4u + 5u + 2u);
  EXPECT_TRUE(g.is_connected());
  EXPECT_EQ(g.degree(0), 2u);
}

}  // namespace
}  // namespace lcert
