#include "src/graph/generators.hpp"

#include <numeric>
#include <stdexcept>

namespace lcert {

Graph make_path(std::size_t n) {
  if (n == 0) throw std::invalid_argument("make_path: n == 0");
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  return Graph(n, edges);
}

Graph make_cycle(std::size_t n) {
  if (n < 3) throw std::invalid_argument("make_cycle: n < 3");
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t i = 0; i + 1 < n; ++i) edges.emplace_back(i, i + 1);
  edges.emplace_back(n - 1, 0);
  return Graph(n, edges);
}

Graph make_star(std::size_t n) {
  if (n == 0) throw std::invalid_argument("make_star: n == 0");
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t i = 1; i < n; ++i) edges.emplace_back(0, i);
  return Graph(n, edges);
}

Graph make_complete(std::size_t n) {
  if (n == 0) throw std::invalid_argument("make_complete: n == 0");
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j) edges.emplace_back(i, j);
  return Graph(n, edges);
}

Graph make_complete_bipartite(std::size_t a, std::size_t b) {
  if (a == 0 || b == 0) throw std::invalid_argument("make_complete_bipartite: empty side");
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t i = 0; i < a; ++i)
    for (std::size_t j = 0; j < b; ++j) edges.emplace_back(i, a + j);
  return Graph(a + b, edges);
}

Graph make_caterpillar(std::size_t spine, std::size_t legs) {
  if (spine == 0) throw std::invalid_argument("make_caterpillar: empty spine");
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t i = 0; i + 1 < spine; ++i) edges.emplace_back(i, i + 1);
  std::size_t next = spine;
  for (std::size_t i = 0; i < spine; ++i)
    for (std::size_t l = 0; l < legs; ++l) edges.emplace_back(i, next++);
  return Graph(next, edges);
}

Graph make_spider(std::size_t legs, std::size_t leg_length) {
  if (leg_length == 0) return Graph(1, {});
  std::vector<std::pair<Vertex, Vertex>> edges;
  std::size_t next = 1;
  for (std::size_t l = 0; l < legs; ++l) {
    Vertex prev = 0;
    for (std::size_t i = 0; i < leg_length; ++i) {
      edges.emplace_back(prev, next);
      prev = static_cast<Vertex>(next++);
    }
  }
  return Graph(next, edges);
}

Graph make_complete_binary_tree(std::size_t levels) {
  if (levels == 0) throw std::invalid_argument("make_complete_binary_tree: levels == 0");
  const std::size_t n = (std::size_t{1} << levels) - 1;
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t v = 1; v < n; ++v) edges.emplace_back(v, (v - 1) / 2);
  return Graph(n, edges);
}

Graph make_random_tree(std::size_t n, Rng& rng) {
  if (n == 0) throw std::invalid_argument("make_random_tree: n == 0");
  if (n == 1) return Graph(1, {});
  if (n == 2) return Graph(2, {{0, 1}});
  // Prüfer decoding, linear: `ptr` only moves up, and a code vertex that
  // becomes a leaf below it is the next smallest leaf, so each step joins the
  // smallest remaining leaf to its code without a rescan.
  std::vector<std::size_t> prufer(n - 2);
  for (auto& x : prufer) x = rng.index(n);
  std::vector<std::size_t> degree(n, 1);
  for (std::size_t x : prufer) ++degree[x];
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(n - 1);
  std::size_t ptr = 0;
  while (degree[ptr] != 1) ++ptr;
  std::size_t leaf = ptr;
  for (std::size_t code : prufer) {
    edges.emplace_back(leaf, code);
    if (--degree[code] == 1 && code < ptr) {
      leaf = code;
    } else {
      ++ptr;
      while (degree[ptr] != 1) ++ptr;
      leaf = ptr;
    }
  }
  // The two vertices left are the current leaf and n - 1, which is never the
  // smallest leaf while another one remains.
  edges.emplace_back(leaf, n - 1);
  return Graph(n, edges);
}

RootedTree make_random_rooted_tree(std::size_t n, std::size_t max_depth, Rng& rng) {
  if (n == 0) throw std::invalid_argument("make_random_rooted_tree: n == 0");
  std::vector<std::size_t> parent(n, RootedTree::kNoParent);
  std::vector<std::size_t> depth(n, 0);
  std::vector<std::size_t> eligible{0};  // vertices with depth < max_depth
  for (std::size_t v = 1; v < n; ++v) {
    if (eligible.empty())
      throw std::invalid_argument("make_random_rooted_tree: depth budget too small");
    const std::size_t p = eligible[rng.index(eligible.size())];
    parent[v] = p;
    depth[v] = depth[p] + 1;
    if (depth[v] < max_depth) eligible.push_back(v);
  }
  return RootedTree(std::move(parent));
}

Graph make_random_connected(std::size_t n, double p, Rng& rng) {
  Graph tree = make_random_tree(n, rng);
  auto edges = tree.edges();
  for (std::size_t i = 0; i < n; ++i)
    for (std::size_t j = i + 1; j < n; ++j)
      if (!tree.has_edge(i, j) && rng.coin(p)) edges.emplace_back(i, j);
  return Graph(n, edges);
}

BoundedTreedepthInstance make_bounded_treedepth_graph(std::size_t n,
                                                      std::size_t depth_budget,
                                                      double extra_edge_p,
                                                      Rng& rng) {
  if (depth_budget == 0)
    throw std::invalid_argument("make_bounded_treedepth_graph: depth budget 0");
  RootedTree t = make_random_rooted_tree(n, depth_budget - 1, rng);
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t p = t.parent(v);
    if (p == RootedTree::kNoParent) continue;
    edges.emplace_back(v, p);
    // Extra edges to strict ancestors above the parent.
    for (std::size_t a = t.parent(p); a != RootedTree::kNoParent; a = t.parent(a))
      if (rng.coin(extra_edge_p)) edges.emplace_back(v, a);
  }
  return {Graph(n, edges), std::move(t)};
}

Graph glue_at_apex(const std::vector<Graph>& parts) {
  if (parts.empty()) throw std::invalid_argument("glue_at_apex: no parts");
  std::vector<std::pair<Vertex, Vertex>> edges;
  std::size_t offset = 1;  // vertex 0 is the apex
  for (const Graph& part : parts) {
    for (auto [u, v] : part.edges()) edges.emplace_back(u + offset, v + offset);
    edges.emplace_back(0, offset);  // apex to part's vertex 0
    offset += part.vertex_count();
  }
  return Graph(offset, edges);
}

}  // namespace lcert
