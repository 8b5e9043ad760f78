// Core graph representation.
//
// Vertices are dense indices 0..n-1; every vertex additionally carries a
// unique *identifier* from a polynomial range [1, n^c], as the certification
// model requires (Section 3.3 of the paper). Algorithms work on indices;
// certificates and verifiers only ever see identifiers, which is what keeps
// the radius-1 model honest.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

namespace lcert {

using Vertex = std::size_t;
using VertexId = std::uint64_t;

/// Immutable simple graph with external vertex IDs, stored as one CSR
/// topology: v's neighbours are adjacency()[offsets()[v] .. offsets()[v+1]),
/// sorted ascending.
class Graph {
 public:
  Graph() = default;

  /// Builds a graph on `n` vertices with the given undirected edge list in
  /// O(n + m log Δ). IDs default to 1..n. Duplicate edges (in either
  /// orientation) and loops throw std::invalid_argument, an endpoint >= n
  /// throws std::out_of_range.
  Graph(std::size_t n, const std::vector<std::pair<Vertex, Vertex>>& edges);

  std::size_t vertex_count() const noexcept { return ids_.size(); }
  std::size_t edge_count() const noexcept { return adjacency_.size() / 2; }

  /// Sorted neighbours of v; throws std::out_of_range when v >= n.
  std::span<const Vertex> neighbors(Vertex v) const {
    check_vertex(v);
    return {adjacency_.data() + offsets_[v], offsets_[v + 1] - offsets_[v]};
  }
  std::size_t degree(Vertex v) const {
    check_vertex(v);
    return offsets_[v + 1] - offsets_[v];
  }

  /// O(log deg) membership test over the sorted neighbour list.
  bool has_edge(Vertex u, Vertex v) const {
    const auto nbrs = neighbors(u);
    return std::binary_search(nbrs.begin(), nbrs.end(), v);
  }

  VertexId id(Vertex v) const { return ids_.at(v); }

  /// The CSR arrays: offsets (n+1 entries, none for Graph()), the
  /// concatenated sorted neighbour lists (2m entries) and the ID per vertex.
  /// The verify engine's ViewCache borrows them instead of copying.
  std::span<const std::size_t> offsets() const noexcept { return offsets_; }
  std::span<const Vertex> adjacency() const noexcept { return adjacency_; }
  std::span<const VertexId> ids() const noexcept { return ids_; }

  /// Replaces the ID assignment; IDs must be distinct and >= 1.
  void set_ids(std::vector<VertexId> ids);

  /// Index of the vertex carrying `id`; throws if absent.
  Vertex vertex_with_id(VertexId id) const;

  /// All undirected edges, each once, with u < v.
  std::vector<std::pair<Vertex, Vertex>> edges() const;

  bool is_connected() const;

  /// Subgraph induced by `keep` (order of `keep` defines new indices).
  /// IDs are inherited from the original vertices.
  Graph induced(const std::vector<Vertex>& keep) const;

  /// BFS distances from `source`; unreachable = SIZE_MAX.
  std::vector<std::size_t> bfs_distances(Vertex source) const;

  /// Human-readable dump (small graphs, debugging and examples).
  std::string to_string() const;

 private:
  void check_vertex(Vertex v) const {
    if (v >= ids_.size()) vertex_out_of_range();
  }
  [[noreturn]] static void vertex_out_of_range();
  friend void assign_random_ids(Graph& g, class Rng& rng);

  std::vector<std::size_t> offsets_;  ///< CSR offsets, size n+1
  std::vector<Vertex> adjacency_;     ///< sorted neighbour lists, size 2m
  std::vector<VertexId> ids_;
};

/// Assigns random distinct IDs from [1, n^2] (the model's polynomial range).
void assign_random_ids(Graph& g, class Rng& rng);

}  // namespace lcert
