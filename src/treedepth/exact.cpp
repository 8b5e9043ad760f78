#include "src/treedepth/exact.hpp"

#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "src/treedepth/elimination.hpp"
#include "src/util/bitio.hpp"

namespace lcert {

namespace {

using Mask = std::uint32_t;

struct Solver {
  std::vector<Mask> adjacency;  // neighbour mask per vertex (n <= 25)
  std::unordered_map<Mask, std::uint8_t> memo;
  std::unordered_map<Mask, Vertex> best_root;  // optimal root per connected mask

  explicit Solver(const Graph& g) : adjacency(g.vertex_count(), 0) {
    for (Vertex v = 0; v < g.vertex_count(); ++v)
      for (Vertex w : g.neighbors(v)) adjacency[v] |= Mask{1} << w;
  }

  // Connected components of the sub graph induced by mask.
  std::vector<Mask> components(Mask mask) const {
    std::vector<Mask> out;
    Mask todo = mask;
    while (todo != 0) {
      const Vertex seed = static_cast<Vertex>(__builtin_ctz(todo));
      Mask comp = Mask{1} << seed;
      Mask frontier = comp;
      while (frontier != 0) {
        const Vertex v = static_cast<Vertex>(__builtin_ctz(frontier));
        frontier &= frontier - 1;
        const Mask fresh = adjacency[v] & mask & ~comp;
        comp |= fresh;
        frontier |= fresh;
      }
      out.push_back(comp);
      todo &= ~comp;
    }
    return out;
  }

  // Treedepth of the connected induced subgraph `mask`.
  std::size_t solve(Mask mask) {
    if (auto it = memo.find(mask); it != memo.end()) return it->second;
    const int popcount = __builtin_popcount(mask);
    if (popcount == 1) {
      memo[mask] = 1;
      best_root[mask] = static_cast<Vertex>(__builtin_ctz(mask));
      return 1;
    }
    std::size_t best = static_cast<std::size_t>(popcount);  // td <= |S|
    Vertex root = static_cast<Vertex>(__builtin_ctz(mask));
    for (Mask rest = mask; rest != 0; rest &= rest - 1) {
      const Vertex v = static_cast<Vertex>(__builtin_ctz(rest));
      std::size_t worst = 0;
      for (Mask comp : components(mask & ~(Mask{1} << v)))
        worst = std::max(worst, solve(comp));
      if (1 + worst < best) {
        best = 1 + worst;
        root = v;
      }
    }
    memo[mask] = static_cast<std::uint8_t>(best);
    best_root[mask] = root;
    return best;
  }

  // Reconstructs an optimal elimination tree for connected `mask`, writing
  // parents into `parent` with the subtree hanging below `attach`.
  void build_model(Mask mask, std::size_t attach, std::vector<std::size_t>& parent) {
    solve(mask);
    const Vertex v = best_root.at(mask);
    parent.at(v) = attach;
    for (Mask comp : components(mask & ~(Mask{1} << v))) build_model(comp, v, parent);
  }
};

}  // namespace

std::size_t exact_treedepth(const Graph& g) {
  const std::size_t n = g.vertex_count();
  if (n == 0) throw std::invalid_argument("exact_treedepth: empty graph");
  if (n > 25) throw std::invalid_argument("exact_treedepth: n > 25 (use the heuristic)");
  if (!g.is_connected()) throw std::invalid_argument("exact_treedepth: graph must be connected");
  Solver solver(g);
  const Mask all = (n == 32) ? ~Mask{0} : ((Mask{1} << n) - 1);
  return solver.solve(all);
}

TreedepthResult exact_treedepth_with_model(const Graph& g) {
  const std::size_t n = g.vertex_count();
  if (n == 0 || n > 25)
    throw std::invalid_argument("exact_treedepth_with_model: n out of range");
  if (!g.is_connected())
    throw std::invalid_argument("exact_treedepth_with_model: graph must be connected");
  Solver solver(g);
  const Mask all = (Mask{1} << n) - 1;
  const std::size_t td = solver.solve(all);
  std::vector<std::size_t> parent(n, RootedTree::kNoParent);
  solver.build_model(all, RootedTree::kNoParent, parent);
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
