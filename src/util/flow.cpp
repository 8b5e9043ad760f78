#include "src/util/flow.hpp"

#include <limits>
#include <queue>
#include <stdexcept>

namespace lcert {

MaxFlow::MaxFlow(std::size_t node_count) : graph_(node_count) {}

std::size_t MaxFlow::add_edge(std::size_t from, std::size_t to, std::int64_t capacity) {
  if (from >= graph_.size() || to >= graph_.size())
    throw std::out_of_range("MaxFlow::add_edge: node out of range");
  if (capacity < 0) throw std::invalid_argument("MaxFlow::add_edge: negative capacity");
  graph_[from].push_back({to, capacity, graph_[to].size()});
  graph_[to].push_back({from, 0, graph_[from].size() - 1});
  edge_refs_.emplace_back(from, graph_[from].size() - 1);
  original_capacity_.push_back(capacity);
  return edge_refs_.size() - 1;
}

bool MaxFlow::bfs(std::size_t source, std::size_t sink) {
  level_.assign(graph_.size(), -1);
  std::queue<std::size_t> q;
  level_[source] = 0;
  q.push(source);
  while (!q.empty()) {
    const std::size_t v = q.front();
    q.pop();
    for (const Edge& e : graph_[v]) {
      if (e.capacity > 0 && level_[e.to] < 0) {
        level_[e.to] = level_[v] + 1;
        q.push(e.to);
      }
    }
  }
  return level_[sink] >= 0;
}

std::int64_t MaxFlow::dfs(std::size_t v, std::size_t sink, std::int64_t pushed) {
  if (v == sink) return pushed;
  for (std::size_t& i = iter_[v]; i < graph_[v].size(); ++i) {
    Edge& e = graph_[v][i];
    if (e.capacity > 0 && level_[v] < level_[e.to]) {
      const std::int64_t d = dfs(e.to, sink, std::min(pushed, e.capacity));
      if (d > 0) {
        e.capacity -= d;
        graph_[e.to][e.reverse].capacity += d;
        return d;
      }
    }
  }
  return 0;
}

std::int64_t MaxFlow::run(std::size_t source, std::size_t sink) {
  if (source == sink) return 0;
  std::int64_t flow = 0;
  while (bfs(source, sink)) {
    iter_.assign(graph_.size(), 0);
    while (true) {
      const std::int64_t pushed = dfs(source, sink, std::numeric_limits<std::int64_t>::max());
      if (pushed == 0) break;
      flow += pushed;
    }
  }
  return flow;
}

std::int64_t MaxFlow::flow_on(std::size_t edge_index) const {
  const auto [node, offset] = edge_refs_.at(edge_index);
  return original_capacity_.at(edge_index) - graph_[node][offset].capacity;
}

bool BoundedFlowProblem::feasible(std::vector<std::int64_t>& flow_out) const {
  // Standard reduction: send each edge's lower bound unconditionally and route
  // the imbalance through a super source/sink; add an uncapacitated back edge
  // sink -> source so the flow value itself is unconstrained.
  const std::size_t super_source = node_count;
  const std::size_t super_sink = node_count + 1;
  MaxFlow mf(node_count + 2);

  std::vector<std::int64_t> excess(node_count, 0);
  std::vector<std::size_t> edge_ids(edges.size());
  for (std::size_t i = 0; i < edges.size(); ++i) {
    const Edge& e = edges[i];
    if (e.lower < 0 || e.upper < e.lower)
      throw std::invalid_argument("BoundedFlowProblem: bad bounds");
    excess[e.to] += e.lower;
    excess[e.from] -= e.lower;
    edge_ids[i] = mf.add_edge(e.from, e.to, e.upper - e.lower);
  }
  // Unbounded return edge to make it a circulation problem.
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max() / 4;
  mf.add_edge(sink, source, kInf);

  std::int64_t required = 0;
  for (std::size_t v = 0; v < node_count; ++v) {
    if (excess[v] > 0) {
      mf.add_edge(super_source, v, excess[v]);
      required += excess[v];
    } else if (excess[v] < 0) {
      mf.add_edge(v, super_sink, -excess[v]);
    }
  }

  const std::int64_t achieved = mf.run(super_source, super_sink);
  if (achieved != required) return false;

  flow_out.assign(edges.size(), 0);
  for (std::size_t i = 0; i < edges.size(); ++i)
    flow_out[i] = edges[i].lower + mf.flow_on(edge_ids[i]);
  return true;
}

}  // namespace lcert
