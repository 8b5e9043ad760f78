// Graph and tree families used throughout the tests, examples and benches.
//
// Everything is deterministic given the Rng, and every generator documents
// which paper construction or experiment it feeds.
#pragma once

#include <cstddef>
#include <vector>

#include "src/graph/graph.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/util/rng.hpp"

namespace lcert {

/// Path on n vertices (treedepth = floor(log2 n) + 1, Figure 1's example).
Graph make_path(std::size_t n);

/// Cycle on n >= 3 vertices.
Graph make_cycle(std::size_t n);

/// Star with one center and n-1 leaves.
Graph make_star(std::size_t n);

/// Complete graph K_n.
Graph make_complete(std::size_t n);

/// Complete bipartite K_{a,b}.
Graph make_complete_bipartite(std::size_t a, std::size_t b);

/// Caterpillar: a spine path of `spine` vertices with `legs` leaves per spine vertex.
Graph make_caterpillar(std::size_t spine, std::size_t legs);

/// Spider: a center with `legs` paths of `leg_length` vertices each.
Graph make_spider(std::size_t legs, std::size_t leg_length);

/// Complete binary tree with `levels` levels (2^levels - 1 vertices).
Graph make_complete_binary_tree(std::size_t levels);

/// Uniform random labeled tree on n vertices via a Prüfer sequence, decoded
/// in O(n).
Graph make_random_tree(std::size_t n, Rng& rng);

/// Random rooted tree with exactly n vertices and height <= max_depth, built
/// by attaching each new vertex to a uniformly random vertex of depth < max_depth.
RootedTree make_random_rooted_tree(std::size_t n, std::size_t max_depth, Rng& rng);

/// Random connected graph: G(n, p) conditioned on connectivity by adding a
/// random spanning tree first.
Graph make_random_connected(std::size_t n, double p, Rng& rng);

/// Random graph of treedepth <= depth_budget: draws a random rooted tree of
/// height <= depth_budget - 1, includes every parent edge (guaranteeing a
/// connected, coherent witness), and adds each other ancestor-descendant edge
/// with probability `extra_edge_p`. Returns both the graph and the witness
/// elimination tree.
struct BoundedTreedepthInstance {
  Graph graph;
  RootedTree elimination_tree;  ///< Valid coherent model of `graph`.
};
BoundedTreedepthInstance make_bounded_treedepth_graph(std::size_t n,
                                                      std::size_t depth_budget,
                                                      double extra_edge_p,
                                                      Rng& rng);

/// Disjoint union with connecting edges removed is not allowed (graphs are
/// connected); this instead glues `parts` at a fresh apex vertex adjacent to
/// one vertex of each part. Used to assemble lower-bound gadgets.
Graph glue_at_apex(const std::vector<Graph>& parts);

}  // namespace lcert
