// Maximum flow (Dinic) plus feasibility of flows with lower bounds.
//
// The nondeterministic run-finder for UOP tree automata reduces "can the
// children be assigned states so that the per-state counts land in the
// required intervals?" to a bipartite b-matching with lower bounds
// (children on one side, states on the other). That feasibility question is
// solved here by the classic circulation-with-lower-bounds transformation.
#pragma once

#include <cstdint>
#include <cstddef>
#include <vector>

namespace lcert {

/// Dinic max-flow on a directed graph with integer capacities.
class MaxFlow {
 public:
  explicit MaxFlow(std::size_t node_count);

  /// Adds a directed edge and returns its index (for flow_on / set residual).
  std::size_t add_edge(std::size_t from, std::size_t to, std::int64_t capacity);

  /// Computes the maximum s-t flow. May be called once per instance.
  std::int64_t run(std::size_t source, std::size_t sink);

  /// Flow routed through the edge returned by add_edge.
  std::int64_t flow_on(std::size_t edge_index) const;

  std::size_t node_count() const noexcept { return graph_.size(); }

 private:
  struct Edge {
    std::size_t to;
    std::int64_t capacity;  // residual capacity
    std::size_t reverse;    // index of reverse edge in graph_[to]
  };

  bool bfs(std::size_t source, std::size_t sink);
  std::int64_t dfs(std::size_t v, std::size_t sink, std::int64_t pushed);

  std::vector<std::vector<Edge>> graph_;
  std::vector<std::pair<std::size_t, std::size_t>> edge_refs_;  // (node, offset)
  std::vector<std::int64_t> original_capacity_;
  std::vector<int> level_;
  std::vector<std::size_t> iter_;
};

/// Feasibility of a flow where every edge carries between `lower` and `upper`
/// units. Returns the per-edge flow if feasible, std::nullopt otherwise
/// (reported via the bool in the pair to avoid an <optional> of vector copy).
struct BoundedFlowProblem {
  struct Edge {
    std::size_t from;
    std::size_t to;
    std::int64_t lower;
    std::int64_t upper;
  };

  std::size_t node_count = 0;
  std::vector<Edge> edges;
  std::size_t source = 0;
  std::size_t sink = 0;

  std::size_t add_node() { return node_count++; }
  std::size_t add_edge(std::size_t from, std::size_t to, std::int64_t lower, std::int64_t upper) {
    edges.push_back({from, to, lower, upper});
    return edges.size() - 1;
  }

  /// Checks whether some s-t flow satisfies every edge's [lower, upper] bound,
  /// with *any* flow value. On success fills `flow_out[edge] = units carried`.
  bool feasible(std::vector<std::int64_t>& flow_out) const;
};

}  // namespace lcert
