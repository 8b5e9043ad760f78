#include "src/fuzz/mutators.hpp"

#include <stdexcept>
#include <unordered_set>
#include <utility>

namespace lcert::fuzz {

namespace {

std::vector<VertexId> ids_of(const Graph& g) {
  std::vector<VertexId> ids(g.vertex_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) ids[v] = g.id(v);
  return ids;
}

/// A fresh ID distinct from every existing one, drawn from the model's
/// polynomial range for the grown vertex count.
VertexId fresh_id(const std::vector<VertexId>& existing, std::size_t n, Rng& rng) {
  const std::unordered_set<VertexId> used(existing.begin(), existing.end());
  const VertexId hi = static_cast<VertexId>(n) * static_cast<VertexId>(n) + 1;
  while (true) {
    const VertexId candidate = rng.uniform(1, hi);
    if (!used.contains(candidate)) return candidate;
  }
}

std::optional<GraphEdit> draw_edge_add(const Graph& g, Rng& rng) {
  const std::size_t n = g.vertex_count();
  std::vector<std::pair<Vertex, Vertex>> non_edges;
  for (Vertex u = 0; u < n; ++u)
    for (Vertex v = u + 1; v < n; ++v)
      if (!g.has_edge(u, v)) non_edges.emplace_back(u, v);
  if (non_edges.empty()) return std::nullopt;
  const auto [u, v] = non_edges[rng.index(non_edges.size())];
  return GraphEdit{.kind = EditKind::kEdgeAdd, .a = u, .b = v};
}

std::optional<GraphEdit> draw_edge_delete(const Graph& g, Rng& rng) {
  const auto edges = g.edges();
  // Non-bridge edges only (instances are tiny, so probe by rebuild).
  std::vector<std::size_t> deletable;
  for (std::size_t k = 0; k < edges.size(); ++k) {
    std::vector<std::pair<Vertex, Vertex>> rest;
    rest.reserve(edges.size() - 1);
    for (std::size_t j = 0; j < edges.size(); ++j)
      if (j != k) rest.push_back(edges[j]);
    if (Graph(g.vertex_count(), rest).is_connected()) deletable.push_back(k);
  }
  if (deletable.empty()) return std::nullopt;
  const auto [u, v] = edges[deletable[rng.index(deletable.size())]];
  return GraphEdit{.kind = EditKind::kEdgeDelete, .a = u, .b = v};
}

std::optional<GraphEdit> draw_leaf_graft(const Graph& g, Rng& rng) {
  const std::size_t n = g.vertex_count();
  if (n == 0) return std::nullopt;
  const Vertex anchor = static_cast<Vertex>(rng.index(n));
  GraphEdit edit{.kind = EditKind::kLeafGraft, .a = anchor};
  edit.fresh_id = fresh_id(ids_of(g), n + 1, rng);
  return edit;
}

std::optional<GraphEdit> draw_leaf_prune(const Graph& g, Rng& rng) {
  const std::size_t n = g.vertex_count();
  if (n <= 2) return std::nullopt;  // keep instances nontrivial
  std::vector<Vertex> leaves;
  for (Vertex v = 0; v < n; ++v)
    if (g.degree(v) == 1) leaves.push_back(v);
  if (leaves.empty()) return std::nullopt;
  return GraphEdit{.kind = EditKind::kLeafPrune, .a = leaves[rng.index(leaves.size())]};
}

std::optional<GraphEdit> draw_subtree_swap(const Graph& g, Rng& rng) {
  const std::size_t n = g.vertex_count();
  if (n < 3 || g.edge_count() != n - 1 || !g.is_connected()) return std::nullopt;
  // Root anywhere, detach a random non-root subtree and re-hang it under a
  // vertex outside that subtree (excluding the old parent, which would be a
  // no-op). The result is again a spanning tree of n vertices.
  const Vertex root = static_cast<Vertex>(rng.index(n));
  std::vector<Vertex> parent(n, static_cast<Vertex>(n));
  std::vector<Vertex> order;
  order.reserve(n);
  order.push_back(root);
  parent[root] = root;
  for (std::size_t head = 0; head < order.size(); ++head)
    for (Vertex w : g.neighbors(order[head]))
      if (parent[w] == n) {
        parent[w] = order[head];
        order.push_back(w);
      }
  const Vertex moved = order[1 + rng.index(n - 1)];  // any non-root vertex
  // Mark the subtree of `moved` (children appear after parents in `order`).
  std::vector<char> in_subtree(n, 0);
  in_subtree[moved] = 1;
  for (Vertex v : order)
    if (v != moved && v != root && in_subtree[parent[v]]) in_subtree[v] = 1;
  std::vector<Vertex> candidates;
  for (Vertex v = 0; v < n; ++v)
    if (!in_subtree[v] && v != parent[moved]) candidates.push_back(v);
  if (candidates.empty()) return std::nullopt;
  const Vertex new_parent = candidates[rng.index(candidates.size())];
  return GraphEdit{
      .kind = EditKind::kSubtreeSwap, .a = moved, .b = new_parent, .c = parent[moved]};
}

std::optional<GraphEdit> draw_id_permute(const Graph& g, Rng& rng) {
  const std::size_t n = g.vertex_count();
  if (n < 2) return std::nullopt;
  GraphEdit edit{.kind = EditKind::kIdPermute};
  edit.ids = ids_of(g);
  rng.shuffle(edit.ids);
  return edit;
}

}  // namespace

std::string mutator_name(MutatorKind kind) { return edit_name(kind); }

std::vector<MutatorKind> tree_preserving_mutators() {
  return {MutatorKind::kLeafGraft, MutatorKind::kLeafPrune,
          MutatorKind::kSubtreeSwap, MutatorKind::kIdPermute};
}

std::vector<MutatorKind> all_mutators() {
  return {MutatorKind::kEdgeAdd,   MutatorKind::kEdgeDelete,
          MutatorKind::kLeafGraft, MutatorKind::kLeafPrune,
          MutatorKind::kSubtreeSwap, MutatorKind::kIdPermute};
}

std::optional<GraphEdit> draw_edit(const Graph& g, MutatorKind kind, Rng& rng) {
  switch (kind) {
    case EditKind::kEdgeAdd: return draw_edge_add(g, rng);
    case EditKind::kEdgeDelete: return draw_edge_delete(g, rng);
    case EditKind::kLeafGraft: return draw_leaf_graft(g, rng);
    case EditKind::kLeafPrune: return draw_leaf_prune(g, rng);
    case EditKind::kSubtreeSwap: return draw_subtree_swap(g, rng);
    case EditKind::kIdPermute: return draw_id_permute(g, rng);
  }
  throw std::invalid_argument("draw_edit: unknown kind");
}

std::optional<Graph> apply_mutator(const Graph& g, MutatorKind kind, Rng& rng) {
  const auto edit = draw_edit(g, kind, rng);
  if (!edit.has_value()) return std::nullopt;
  return apply_edit(g, *edit);
}

}  // namespace lcert::fuzz
