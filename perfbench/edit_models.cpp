#include "perfbench/edit_models.hpp"

#include <stdexcept>
#include <string>
#include <utility>

#include "src/fuzz/mutators.hpp"

namespace lcert::bench {

namespace {

constexpr std::size_t kNone = SIZE_MAX;
constexpr std::size_t kMaxDraws = 256;

/// Parent array of `g` rooted at vertex 0 (BFS). Throws unless `g` is a tree.
std::vector<std::size_t> parents_from_root0(const Graph& g) {
  const std::size_t n = g.vertex_count();
  if (n == 0 || g.edge_count() != n - 1) throw std::invalid_argument("edit model: not a tree");
  std::vector<std::size_t> parent(n, kNone);
  std::vector<char> seen(n, 0);
  std::vector<std::size_t> queue{0};
  seen[0] = 1;
  for (std::size_t i = 0; i < queue.size(); ++i)
    for (Vertex w : g.neighbors(queue[i]))
      if (!seen[w]) {
        seen[w] = 1;
        parent[w] = queue[i];
        queue.push_back(w);
      }
  if (queue.size() != n) throw std::invalid_argument("edit model: not connected");
  return parent;
}

VertexId fresh_id_base(const Graph& g) {
  VertexId max_id = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) max_id = std::max(max_id, g.id(v));
  return max_id + 1;
}

class LeafChurn final : public EditSource {
 public:
  LeafChurn(const Graph& g, std::uint64_t seed)
      : parent_(parents_from_root0(g)), degree_(g.vertex_count()),
        next_id_(fresh_id_base(g)), rng_(seed) {
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      degree_[v] = g.degree(v);
      leaves_ += degree_[v] == 1;
    }
  }

  GraphEdit next() override {
    const int kind = step_++ % 3;
    if (kind == 1 && degree_.size() > 2) return rehang();
    if (kind == 2 && leaves_ > 5) return prune();
    return graft();
  }

  bool matches(const Graph& g) const override {
    if (g.vertex_count() != degree_.size()) return false;
    for (Vertex v = 0; v < g.vertex_count(); ++v)
      if (g.degree(v) != degree_[v]) return false;
    return true;
  }

 private:
  std::size_t random_leaf() {
    for (;;) {
      const std::size_t v = rng_.index(degree_.size());
      if (degree_[v] == 1) return v;
    }
  }

  std::size_t neighbor_of_leaf(std::size_t v) const {
    if (v != root_) return parent_[v];
    for (std::size_t u = 0; u < parent_.size(); ++u)
      if (parent_[u] == v) return u;
    throw std::logic_error("leaf churn: root leaf without a child");
  }

  void set_degree(std::size_t v, std::size_t d) {
    leaves_ -= degree_[v] == 1;
    degree_[v] = d;
    leaves_ += d == 1;
  }

  GraphEdit graft() {
    GraphEdit e;
    e.kind = EditKind::kLeafGraft;
    e.a = static_cast<Vertex>(rng_.index(degree_.size()));
    e.fresh_id = next_id_++;
    set_degree(e.a, degree_[e.a] + 1);
    parent_.push_back(e.a);
    degree_.push_back(1);
    ++leaves_;
    return e;
  }

  GraphEdit prune() {
    const std::size_t v = random_leaf();
    const std::size_t c = neighbor_of_leaf(v);
    if (v == root_) {
      root_ = c;
      parent_[c] = kNone;
    }
    set_degree(c, degree_[c] - 1);
    --leaves_;
    parent_.erase(parent_.begin() + static_cast<std::ptrdiff_t>(v));
    degree_.erase(degree_.begin() + static_cast<std::ptrdiff_t>(v));
    for (std::size_t& p : parent_)
      if (p != kNone && p > v) --p;
    if (root_ > v) --root_;
    GraphEdit e;
    e.kind = EditKind::kLeafPrune;
    e.a = static_cast<Vertex>(v);
    return e;
  }

  GraphEdit rehang() {
    const std::size_t v = random_leaf();
    const std::size_t c = neighbor_of_leaf(v);
    std::size_t b;
    do b = rng_.index(degree_.size());
    while (b == v || b == c);
    if (v == root_) {
      root_ = c;
      parent_[c] = kNone;
    }
    parent_[v] = b;
    set_degree(c, degree_[c] - 1);
    set_degree(b, degree_[b] + 1);
    GraphEdit e;
    e.kind = EditKind::kSubtreeSwap;
    e.a = static_cast<Vertex>(v);
    e.c = static_cast<Vertex>(c);
    e.b = static_cast<Vertex>(b);
    return e;
  }

  std::vector<std::size_t> parent_;  ///< rooted at root_
  std::vector<std::size_t> degree_;
  std::size_t root_ = 0;
  std::size_t leaves_ = 0;
  std::size_t step_ = 0;
  VertexId next_id_;
  Rng rng_;
};

class SubtreeRehang final : public EditSource {
 public:
  SubtreeRehang(const Graph& g, std::uint64_t seed) : rng_(seed) {
    const std::size_t n = g.vertex_count();
    base_ = n / 2;
    std::vector<std::size_t> parent = parents_from_root0(g);
    if (n % 2 != 0 || base_ < 3)
      throw std::invalid_argument("subtree rehang: not a twinned tree");
    for (std::size_t t = base_; t < n; ++t)
      if (g.degree(t) != 1 || !g.has_edge(t, t - base_))
        throw std::invalid_argument("subtree rehang: vertex " + std::to_string(t) +
                                    " is not the pendant twin of " +
                                    std::to_string(t - base_));
    parent.resize(base_);  // twins hang off their base vertex; only the base moves
    parent_ = std::move(parent);
    degree_.resize(n);
    for (Vertex v = 0; v < n; ++v) degree_[v] = g.degree(v);
  }

  /// Uniform over legal (subtree root, new parent) pairs: both are redrawn
  /// together, since a subtree spanning almost the whole base tree has no
  /// attachment point outside it.
  GraphEdit next() override {
    for (std::size_t draw = 0; draw < kMaxDraws; ++draw) {
      const std::size_t x = 1 + rng_.index(base_ - 1);
      const std::size_t c = parent_[x];
      const std::size_t y = rng_.index(base_);
      if (y == c || inside_subtree(y, x)) continue;
      parent_[x] = y;
      --degree_[c];
      ++degree_[y];
      GraphEdit e;
      e.kind = EditKind::kSubtreeSwap;
      e.a = static_cast<Vertex>(x);
      e.c = static_cast<Vertex>(c);
      e.b = static_cast<Vertex>(y);
      return e;
    }
    throw std::runtime_error("subtree rehang: no legal rehang in " +
                             std::to_string(kMaxDraws) + " draws");
  }

  bool matches(const Graph& g) const override {
    if (g.vertex_count() != degree_.size()) return false;
    for (Vertex v = 0; v < g.vertex_count(); ++v)
      if (g.degree(v) != degree_[v]) return false;
    return true;
  }

 private:
  /// True when y lies in the subtree of x (rooted at 0).
  bool inside_subtree(std::size_t y, std::size_t x) const {
    for (std::size_t v = y; v != kNone; v = parent_[v])
      if (v == x) return true;
    return false;
  }

  std::size_t base_ = 0;
  std::vector<std::size_t> parent_;  ///< base tree rooted at 0
  std::vector<std::size_t> degree_;  ///< every vertex, twins included
  Rng rng_;
};

class FamilyMutations final : public EditSource {
 public:
  FamilyMutations(const RegisteredScheme& entry, const Scheme& scheme, const Graph& g,
                  std::uint64_t seed)
      : entry_(entry), scheme_(scheme), cur_(g), rng_(seed) {}

  GraphEdit next() override {
    const auto& kinds = entry_.family.mutators;
    for (std::size_t draw = 0; draw < kMaxDraws; ++draw) {
      const auto edit = fuzz::draw_edit(cur_, kinds[rng_.index(kinds.size())], rng_);
      if (!edit.has_value()) continue;
      Graph next = apply_edit(cur_, *edit);
      bool holds = false;
      try {
        holds = scheme_.holds(next);
      } catch (const std::invalid_argument&) {
        ++envelope_redraws;
        continue;
      }
      if (!holds) {
        ++property_redraws;
        continue;
      }
      pending_ = std::move(next);
      return *edit;
    }
    throw std::runtime_error(entry_.key + ": no property-preserving edit in " +
                             std::to_string(kMaxDraws) + " draws");
  }

  void applied() override {
    if (pending_.has_value()) cur_ = std::move(*pending_);
    pending_.reset();
  }

  bool matches(const Graph& g) const override {
    if (g.vertex_count() != cur_.vertex_count()) return false;
    for (Vertex v = 0; v < g.vertex_count(); ++v)
      if (g.degree(v) != cur_.degree(v) || g.id(v) != cur_.id(v)) return false;
    return true;
  }

 private:
  const RegisteredScheme& entry_;
  const Scheme& scheme_;
  Graph cur_;
  std::optional<Graph> pending_;
  Rng rng_;
};

}  // namespace

std::unique_ptr<EditSource> make_leaf_churn(const Graph& g, std::uint64_t seed) {
  return std::make_unique<LeafChurn>(g, seed);
}

std::unique_ptr<EditSource> make_subtree_rehang(const Graph& g, std::uint64_t seed) {
  return std::make_unique<SubtreeRehang>(g, seed);
}

std::unique_ptr<EditSource> make_family_mutations(const RegisteredScheme& entry,
                                                  const Scheme& scheme, const Graph& g,
                                                  std::uint64_t seed) {
  return std::make_unique<FamilyMutations>(entry, scheme, g, seed);
}

}  // namespace lcert::bench
