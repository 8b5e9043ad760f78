// Rooted trees as a first-class structure.
//
// Several subsystems (tree automata runs, the kernelization's elimination
// trees, the lower bound's depth-k tree unranking) manipulate rooted trees
// directly; converting through Graph every time would lose the root and the
// parent orientation. A RootedTree stores a parent array with children lists
// derived on construction.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "src/graph/graph.hpp"

namespace lcert {

/// Rooted tree on vertices 0..n-1. parent[root] == NO_PARENT.
class RootedTree {
 public:
  static constexpr std::size_t kNoParent = SIZE_MAX;

  RootedTree() = default;

  /// Builds from a parent array; validates that it encodes a single tree.
  explicit RootedTree(std::vector<std::size_t> parent);

  std::size_t size() const noexcept { return parent_.size(); }
  std::size_t root() const noexcept { return root_; }
  std::size_t parent(std::size_t v) const { return parent_.at(v); }
  std::span<const std::size_t> children(std::size_t v) const { return children_.at(v); }
  bool is_leaf(std::size_t v) const { return children_.at(v).empty(); }

  /// Depth of v (root has depth 0).
  std::size_t depth(std::size_t v) const { return depth_.at(v); }

  /// Height of the tree = max depth. A single vertex has height 0.
  std::size_t height() const;

  /// True iff `a` is an ancestor of `d` (a vertex is its own ancestor).
  bool is_ancestor(std::size_t a, std::size_t d) const;

  /// Ancestors of v from v itself up to the root (inclusive).
  std::vector<std::size_t> ancestors(std::size_t v) const;

  /// Vertices of the subtree rooted at v (preorder).
  std::vector<std::size_t> subtree(std::size_t v) const;

  /// Vertices in an order where every parent precedes its children.
  std::vector<std::size_t> preorder() const { return subtree(root_); }

  /// Vertices grouped by depth: levels()[d] holds every vertex at depth d, in
  /// ascending vertex order. The MSO batch prover sweeps these deepest-first
  /// (children are complete before their parent is touched), then
  /// root-first for run extraction.
  std::vector<std::vector<std::size_t>> levels() const;

  /// The underlying undirected tree as a Graph (IDs default 1..n).
  Graph to_graph() const;

  /// Roots an undirected tree (must be connected and acyclic) at `root`.
  static RootedTree from_graph(const Graph& g, Vertex root);

  // --- Incremental patch API (DESIGN.md §13) -------------------------------
  //
  // Each operation edits the tree in place and leaves it in exactly the state
  // a fresh construction over the mutated graph would produce: parent array,
  // depths, and children lists (ascending vertex order — the invariant the
  // batch prover's deterministic extraction relies on) all match
  // from_graph(mutated, mapped root) bit for bit. Pinned by
  // tests/test_incremental.cpp over randomized edit sequences.

  /// Appends vertex size() as a new leaf under `parent`; returns its index.
  /// O(1): the new index exceeds every existing one, so the children list
  /// stays sorted by construction.
  std::size_t graft_leaf(std::size_t parent);

  /// Removes the childless non-root vertex `leaf`. Surviving indices are
  /// renumbered exactly like Graph::induced's compaction: v maps to v-1 for
  /// every v > leaf. O(n) for the renumber; children stay sorted because the
  /// shift is order-preserving.
  void prune_leaf(std::size_t leaf);

  /// Detaches the subtree rooted at `c` (must not be the root), re-roots the
  /// detached piece at `a` (must lie inside it — parent pointers along the
  /// a-to-c path reverse), and hangs `a` under `p` (must lie outside the
  /// detached piece). This is the tree-side image of the subtree-swap edit:
  /// delete edge {c, parent(c)}, insert edge {a, p}. Depths of the moved
  /// subtree are recomputed. Returns the a-to-c path (a first) — exactly the
  /// vertices whose children sets changed inside the moved piece, which is
  /// what the incremental prover seeds its dirty set with.
  /// O(|moved subtree| + sum of path degrees).
  std::vector<std::size_t> reattach(std::size_t c, std::size_t a, std::size_t p);

 private:
  std::vector<std::size_t> parent_;
  std::vector<std::vector<std::size_t>> children_;
  std::vector<std::size_t> depth_;
  std::size_t root_ = 0;
};

}  // namespace lcert
