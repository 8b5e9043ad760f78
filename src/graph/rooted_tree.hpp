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
#include <utility>
#include <vector>

#include "src/graph/graph.hpp"

namespace lcert {

/// Rooted tree on vertices 0..n-1. parent[root] == NO_PARENT.
///
/// Vertices live in slots. A freshly built tree is compacted: slot v is
/// vertex v. kill_leaf tombstones a slot without renumbering anything, and
/// compact() later drops every tombstone at once (DESIGN.md §13). Between
/// the two, the live slots keep their relative order, so vertex i is the
/// i-th live slot.
class RootedTree {
 public:
  static constexpr std::size_t kNoParent = SIZE_MAX;
  /// parent() of a tombstoned slot.
  static constexpr std::size_t kDead = SIZE_MAX - 1;

  RootedTree() = default;

  /// Builds from a parent array; validates that it encodes a single tree.
  explicit RootedTree(std::vector<std::size_t> parent);

  /// Slot count, live or dead: the vertex count when the tree is compacted.
  std::size_t size() const noexcept { return parent_.size(); }
  /// Tombstoned slots awaiting compact().
  std::size_t dead_count() const noexcept { return dead_; }
  bool is_live(std::size_t v) const { return parent_.at(v) != kDead; }
  std::size_t root() const noexcept { return root_; }
  std::size_t parent(std::size_t v) const { return parent_.at(v); }
  std::span<const std::size_t> children(std::size_t v) const { return children_.at(v); }
  bool is_leaf(std::size_t v) const { return children_.at(v).empty(); }

  /// Depth of v (root has depth 0).
  std::size_t depth(std::size_t v) const { return depth_.at(v); }

  /// Height of the tree = max depth. A single vertex has height 0.
  /// Like levels() and to_graph(), a whole-tree sweep: requires a compacted
  /// tree (throws std::logic_error on tombstones).
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
  // Each operation edits the tree in place. Once compacted, the tree is
  // exactly what a fresh construction over the mutated graph would produce:
  // parent array, depths, and children lists (ascending vertex order — the
  // invariant the batch prover's deterministic extraction relies on) all
  // match from_graph(mutated, mapped root) bit for bit. Before compaction the
  // same holds slot for slot, since live slots keep their relative order.
  // Pinned by tests/test_incremental.cpp over randomized edit sequences.

  /// Capacity for `slots` slots without reallocation.
  void reserve(std::size_t slots) {
    parent_.reserve(slots);
    children_.reserve(slots);
    depth_.reserve(slots);
  }

  /// Appends slot size() as a new leaf under `parent`; returns its slot.
  /// O(1): the new slot exceeds every existing one, so the children list
  /// stays sorted by construction.
  std::size_t graft_leaf(std::size_t parent);

  /// Removes the childless non-root vertex `leaf` and renumbers the
  /// survivors exactly like Graph::induced's compaction: v maps to v-1 for
  /// every v > leaf. This is kill_leaf followed by compact(), so it costs
  /// O(n); a caller that prunes often should kill_leaf and compact rarely.
  void prune_leaf(std::size_t leaf);

  /// Tombstones the childless non-root slot `leaf`: it leaves its parent's
  /// children list and no slot moves. O(deg(parent)). Sweeps refuse the tree
  /// until compact() runs.
  void kill_leaf(std::size_t leaf);

  /// Drops every tombstoned slot; live slots shift down into the holes in
  /// order, so the i-th live slot becomes vertex i and children lists stay
  /// sorted. The one renumber routine of the patch API: O(size()). Parallel
  /// slot-indexed arrays are compacted the same way by drop_dead, which
  /// must run before this call.
  void compact();

  /// Removes the entries of a slot-indexed array (one entry per slot) at
  /// tombstoned slots, keeping the order of the rest.
  template <typename T>
  void drop_dead(std::vector<T>& values) const {
    std::size_t w = 0;
    for (std::size_t s = 0; s < values.size(); ++s) {
      if (parent_[s] == kDead) continue;
      if (w != s) values[w] = std::move(values[s]);
      ++w;
    }
    values.resize(w);
  }

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
  std::size_t dead_ = 0;

  void require_compacted(const char* what) const;
};

}  // namespace lcert
