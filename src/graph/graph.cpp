#include "src/graph/graph.hpp"

#include <queue>
#include <sstream>
#include <stdexcept>

#include "src/util/rng.hpp"

namespace lcert {

Graph::Graph(std::size_t n, const std::vector<std::pair<Vertex, Vertex>>& edges)
    : offsets_(n + 1, 0), adjacency_(2 * edges.size()), ids_(n) {
  for (std::size_t v = 0; v < n; ++v) ids_[v] = static_cast<VertexId>(v + 1);
  for (auto [u, v] : edges) {
    if (u >= n || v >= n) throw std::out_of_range("Graph: edge endpoint out of range");
    if (u == v) throw std::invalid_argument("Graph: loops are not allowed");
    ++offsets_[u];
    ++offsets_[v];
  }
  // offsets_[v] becomes the end of v's list; the fill below counts each
  // list down to its start.
  for (std::size_t v = 0; v < n; ++v) offsets_[v + 1] += offsets_[v];
  for (auto [u, v] : edges) {
    adjacency_[--offsets_[u]] = v;
    adjacency_[--offsets_[v]] = u;
  }
  for (std::size_t v = 0; v < n; ++v) {
    const auto first = adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[v]);
    const auto last = adjacency_.begin() + static_cast<std::ptrdiff_t>(offsets_[v + 1]);
    std::sort(first, last);
    if (std::adjacent_find(first, last) != last)
      throw std::invalid_argument("Graph: duplicate edge");
  }
}

void Graph::vertex_out_of_range() {
  throw std::out_of_range("Graph: vertex out of range");
}

void Graph::set_ids(std::vector<VertexId> ids) {
  if (ids.size() != ids_.size())
    throw std::invalid_argument("Graph::set_ids: wrong length");
  std::vector<VertexId> sorted = ids;
  std::sort(sorted.begin(), sorted.end());
  if (!sorted.empty() && sorted.front() == 0)
    throw std::invalid_argument("Graph::set_ids: IDs must be >= 1");
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
    throw std::invalid_argument("Graph::set_ids: duplicate ID");
  ids_ = std::move(ids);
}

Vertex Graph::vertex_with_id(VertexId id) const {
  for (Vertex v = 0; v < ids_.size(); ++v)
    if (ids_[v] == id) return v;
  throw std::out_of_range("Graph::vertex_with_id: no such ID");
}

std::vector<std::pair<Vertex, Vertex>> Graph::edges() const {
  std::vector<std::pair<Vertex, Vertex>> out;
  out.reserve(edge_count());
  for (Vertex u = 0; u < vertex_count(); ++u)
    for (Vertex v : neighbors(u))
      if (u < v) out.emplace_back(u, v);
  return out;
}

bool Graph::is_connected() const {
  if (vertex_count() == 0) return false;
  const auto dist = bfs_distances(0);
  return std::none_of(dist.begin(), dist.end(),
                      [](std::size_t d) { return d == SIZE_MAX; });
}

Graph Graph::induced(const std::vector<Vertex>& keep) const {
  // (old vertex, new index) sorted by old vertex: a lookup is a binary search
  // over the kept vertices, so the cost does not grow with n (the per-block
  // callers keep two vertices of a large tree).
  std::vector<std::pair<Vertex, Vertex>> index_of(keep.size());
  for (std::size_t i = 0; i < keep.size(); ++i) {
    if (keep[i] >= vertex_count()) throw std::out_of_range("Graph::induced: bad vertex");
    index_of[i] = {keep[i], i};
  }
  std::sort(index_of.begin(), index_of.end());
  for (std::size_t i = 1; i < index_of.size(); ++i)
    if (index_of[i - 1].first == index_of[i].first)
      throw std::invalid_argument("Graph::induced: duplicate vertex");
  std::vector<std::pair<Vertex, Vertex>> new_edges;
  for (std::size_t i = 0; i < keep.size(); ++i)
    for (Vertex w : neighbors(keep[i])) {
      const auto it = std::lower_bound(index_of.begin(), index_of.end(),
                                       std::pair<Vertex, Vertex>{w, 0});
      if (it != index_of.end() && it->first == w && i < it->second)
        new_edges.emplace_back(i, it->second);
    }
  Graph out(keep.size(), new_edges);
  for (std::size_t i = 0; i < keep.size(); ++i) out.ids_[i] = ids_[keep[i]];
  return out;
}

std::vector<std::size_t> Graph::bfs_distances(Vertex source) const {
  std::vector<std::size_t> dist(vertex_count(), SIZE_MAX);
  std::queue<Vertex> q;
  dist.at(source) = 0;
  q.push(source);
  while (!q.empty()) {
    const Vertex v = q.front();
    q.pop();
    for (Vertex w : neighbors(v)) {
      if (dist[w] == SIZE_MAX) {
        dist[w] = dist[v] + 1;
        q.push(w);
      }
    }
  }
  return dist;
}

std::string Graph::to_string() const {
  std::ostringstream os;
  os << "Graph(n=" << vertex_count() << ", m=" << edge_count() << ")\n";
  for (Vertex v = 0; v < vertex_count(); ++v) {
    os << "  " << v << " (id=" << ids_[v] << "):";
    for (Vertex w : neighbors(v)) os << ' ' << w;
    os << '\n';
  }
  return os.str();
}

void assign_random_ids(Graph& g, Rng& rng) {
  // The IDs and the RNG draws of a one-at-a-time rejection loop (a draw is
  // kept unless its value was drawn before; draw until n are kept), with
  // repeats found by sorting: each round draws the shortfall and keeps the
  // first draw of every value.
  const std::size_t n = g.vertex_count();
  const std::uint64_t range = static_cast<std::uint64_t>(n) * n + 1;
  std::vector<VertexId> ids;     // kept draws, in draw order
  std::vector<VertexId> sorted;  // every value drawn so far, sorted
  ids.reserve(n);
  while (ids.size() < n) {
    const std::size_t kept = ids.size();
    const auto fresh = static_cast<std::ptrdiff_t>(kept);
    for (std::size_t i = kept; i < n; ++i) ids.push_back(rng.uniform(1, range));
    sorted.insert(sorted.end(), ids.begin() + fresh, ids.end());
    std::sort(sorted.begin() + fresh, sorted.end());
    std::inplace_merge(sorted.begin(), sorted.begin() + fresh, sorted.end());
    std::vector<VertexId> repeated;  // values drawn more than once, sorted
    for (std::size_t k = 1; k < sorted.size(); ++k)
      if (sorted[k - 1] == sorted[k] && (repeated.empty() || repeated.back() != sorted[k]))
        repeated.push_back(sorted[k]);
    if (repeated.empty()) break;
    std::vector<char> seen(repeated.size(), 0);
    std::size_t out = 0;
    for (const VertexId id : ids) {
      const auto it = std::lower_bound(repeated.begin(), repeated.end(), id);
      if (it != repeated.end() && *it == id) {
        char& first = seen[static_cast<std::size_t>(it - repeated.begin())];
        if (first) continue;
        first = 1;
      }
      ids[out++] = id;
    }
    ids.resize(out);
    sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  }
  // Distinct and >= 1 by construction, so set_ids' check is skipped.
  g.ids_ = std::move(ids);
}

}  // namespace lcert
