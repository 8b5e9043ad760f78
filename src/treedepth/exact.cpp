#include "src/treedepth/exact.hpp"

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/treedepth/elimination.hpp"
#include "src/util/bitio.hpp"

namespace lcert {

namespace {

using Mask = std::uint32_t;

struct ExactMetrics {
  obs::Counter expansions = obs::registry().counter("treedepth/exact_expansions");
  std::uint32_t trace_exact = obs::trace_sink().name_id("treedepth/exact");
};

const ExactMetrics& exact_metrics() {
  static const ExactMetrics metrics;
  return metrics;
}

struct Solver {
  /// What is known about one connected mask: td itself with its first
  /// optimal root (exact), or only a lower bound on td.
  struct Entry {
    std::uint8_t value = 0;  // 0: not seen yet
    bool exact = false;
    std::uint8_t root = 0;
  };

  std::vector<Mask> adjacency;  // neighbour mask per vertex (n <= 25)
  std::unordered_map<Mask, Entry> memo;
  std::uint64_t expansions = 0;  // masks whose roots were scanned

  explicit Solver(const Graph& g) : adjacency(g.vertex_count(), 0) {
    for (Vertex v = 0; v < g.vertex_count(); ++v)
      for (Vertex w : g.neighbors(v)) adjacency[v] |= Mask{1} << w;
  }

  // The connected component of the subgraph induced by mask that holds seed.
  Mask component(Mask mask, Vertex seed) const {
    Mask comp = Mask{1} << seed;
    Mask frontier = comp;
    while (frontier != 0) {
      const Vertex v = static_cast<Vertex>(__builtin_ctz(frontier));
      frontier &= frontier - 1;
      const Mask fresh = adjacency[v] & mask & ~comp;
      comp |= fresh;
      frontier |= fresh;
    }
    return comp;
  }

  // td of the connected induced subgraph `mask` when it is <= cap; otherwise
  // a lower bound on td that exceeds cap. Roots are tried in ascending order
  // and replace the incumbent only on a strict improvement, so an exact
  // entry holds the first root that attains td, as the full subset DP does.
  std::size_t solve(Mask mask, std::size_t cap) {
    Entry& entry = memo[mask];  // node-based: stays valid across inserts
    if (entry.exact || entry.value > cap) return entry.value;
    const std::size_t size = static_cast<std::size_t>(__builtin_popcount(mask));
    const auto first = static_cast<std::uint8_t>(__builtin_ctz(mask));
    if (size <= 2) {
      entry = {static_cast<std::uint8_t>(size), true, first};
      return size;
    }
    const std::size_t lower = std::max<std::size_t>(entry.value, 2);  // td >= 2
    if (cap < lower) {
      entry.value = static_cast<std::uint8_t>(lower);
      return lower;
    }
    ++expansions;
    // The DP's incumbent is |S| at the first vertex (every root attains
    // <= |S|); under a smaller cap only a root that reaches <= cap counts.
    const std::size_t start = std::min(size, cap + 1);
    std::size_t best = start;
    std::uint8_t root = first;
    std::size_t dropped = SIZE_MAX;  // min over dropped roots of a bound on their depth
    for (Mask rest = mask; rest != 0 && best > lower; rest &= rest - 1) {
      const auto v = static_cast<std::uint8_t>(__builtin_ctz(rest));
      const Mask others = mask & ~(Mask{1} << v);
      const std::size_t limit = best - 2;  // v improves iff every component fits
      std::size_t worst = 0;
      for (Mask todo = others; todo != 0 && worst <= limit;) {
        const Mask comp = component(others, static_cast<Vertex>(__builtin_ctz(todo)));
        todo &= ~comp;
        worst = std::max(worst, solve(comp, limit));
      }
      if (worst <= limit) {
        best = 1 + worst;
        root = v;
      } else {
        dropped = std::min(dropped, 1 + worst);
      }
    }
    if (best < start || size <= cap + 1)
      entry = {static_cast<std::uint8_t>(best), true, root};
    else
      entry.value = static_cast<std::uint8_t>(dropped);  // no root fits: td >= dropped > cap
    return entry.value;
  }

  // Reconstructs an optimal elimination tree for connected `mask`, writing
  // parents into `parent` with the subtree hanging below `attach`.
  void build_model(Mask mask, std::size_t attach, std::vector<std::size_t>& parent) {
    solve(mask, static_cast<std::size_t>(__builtin_popcount(mask)));  // td <= |S|: exact
    const Vertex v = memo.at(mask).root;
    parent.at(v) = attach;
    const Mask others = mask & ~(Mask{1} << v);
    for (Mask todo = others; todo != 0;) {
      const Mask comp = component(others, static_cast<Vertex>(__builtin_ctz(todo)));
      todo &= ~comp;
      build_model(comp, v, parent);
    }
  }
};

}  // namespace

std::size_t exact_treedepth(const Graph& g) {
  const std::size_t n = g.vertex_count();
  if (n == 0) throw std::invalid_argument("exact_treedepth: empty graph");
  if (n > 25) throw std::invalid_argument("exact_treedepth: n > 25 (use the heuristic)");
  if (!g.is_connected()) throw std::invalid_argument("exact_treedepth: graph must be connected");
  const ExactMetrics& m = exact_metrics();
  obs::TraceSpan span(m.trace_exact, 0, static_cast<std::int64_t>(n));
  Solver solver(g);
  const std::size_t td = solver.solve((Mask{1} << n) - 1, n);
  m.expansions.add(solver.expansions);
  return td;
}

TreedepthResult exact_treedepth_with_model(const Graph& g) {
  const std::size_t n = g.vertex_count();
  if (n == 0 || n > 25)
    throw std::invalid_argument("exact_treedepth_with_model: n out of range");
  if (!g.is_connected())
    throw std::invalid_argument("exact_treedepth_with_model: graph must be connected");
  const ExactMetrics& m = exact_metrics();
  obs::TraceSpan span(m.trace_exact, 0, static_cast<std::int64_t>(n));
  Solver solver(g);
  const Mask all = (Mask{1} << n) - 1;
  const std::size_t td = solver.solve(all, n);
  std::vector<std::size_t> parent(n, RootedTree::kNoParent);
  solver.build_model(all, RootedTree::kNoParent, parent);
  m.expansions.add(solver.expansions);
  RootedTree model(parent);
  return {td, make_coherent(g, model)};
}

std::size_t treedepth_of_path(std::size_t n) noexcept {
  // ceil(log2(n+1))
  return bits_for(n);
}

std::size_t treedepth_of_cycle(std::size_t n) noexcept {
  return 1 + treedepth_of_path(n - 1);
}

namespace {

void build_path_model(std::size_t lo, std::size_t hi, std::size_t attach,
                      std::vector<std::size_t>& parent) {
  if (lo > hi) return;
  const std::size_t mid = lo + (hi - lo) / 2;
  parent[mid] = attach;
  if (mid > lo) build_path_model(lo, mid - 1, mid, parent);
  build_path_model(mid + 1, hi, mid, parent);
}

}  // namespace

RootedTree path_model(std::size_t n) {
  if (n == 0) throw std::invalid_argument("path_model: n == 0");
  std::vector<std::size_t> parent(n, RootedTree::kNoParent);
  build_path_model(0, n - 1, RootedTree::kNoParent, parent);
  return RootedTree(std::move(parent));
}

}  // namespace lcert
