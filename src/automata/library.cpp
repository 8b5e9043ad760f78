#include "src/automata/library.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>

#include "src/graph/minors.hpp"
#include "src/graph/rooted_tree.hpp"

namespace lcert {

namespace {

using UC = UnaryConstraint;

/// Conjunction "y_q == 0" for every state not in `allowed`.
UC zero_outside(const std::vector<std::size_t>& allowed, std::size_t state_count) {
  UC out = UC::always_true();
  for (std::size_t q = 0; q < state_count; ++q)
    if (std::find(allowed.begin(), allowed.end(), q) == allowed.end())
      out = out && UC::exactly(q, 0);
  return out;
}

std::vector<Vertex> all_vertices(const Graph& g) {
  std::vector<Vertex> out(g.vertex_count());
  for (Vertex v = 0; v < g.vertex_count(); ++v) out[v] = v;
  return out;
}

std::vector<Vertex> internal_vertices(const Graph& g) {
  std::vector<Vertex> out;
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    if (g.degree(v) >= 2) out.push_back(v);
  if (out.empty()) return all_vertices(g);  // n <= 2
  return out;
}

}  // namespace

UOPAutomaton aut_path() {
  AutomatonBuilder b;
  const std::size_t P = b.add_state("P", false);   // downward chain
  const std::size_t R = b.add_state("R", true);    // root of the path
  b.set_transition(P, UC::le(P, 1) && zero_outside({P}, 2));
  b.set_transition(R, UC::le(P, 2) && zero_outside({P}, 2));
  return b.build();
}

UOPAutomaton aut_star() {
  AutomatonBuilder b;
  const std::size_t L = b.add_state("L", false);   // pendant leaf
  const std::size_t C = b.add_state("C", true);    // center
  const std::size_t A = b.add_state("A", true);    // leaf chosen as root
  b.set_transition(L, zero_outside({}, 3));
  b.set_transition(C, zero_outside({L}, 3));
  b.set_transition(A, UC::exactly(C, 1) && zero_outside({C}, 3));
  return b.build();
}

UOPAutomaton aut_caterpillar() {
  AutomatonBuilder b;
  const std::size_t L = b.add_state("L", false);   // leg leaf
  const std::size_t S = b.add_state("S", false);   // downward spine
  const std::size_t R = b.add_state("R", true);    // spine vertex chosen as root
  b.set_transition(L, zero_outside({}, 3));
  b.set_transition(S, UC::le(S, 1) && zero_outside({L, S}, 3));
  b.set_transition(R, UC::le(S, 2) && zero_outside({L, S}, 3));
  return b.build();
}

UOPAutomaton aut_max_degree_le(std::size_t d) {
  if (d == 0) throw std::invalid_argument("aut_max_degree_le: d must be >= 1");
  AutomatonBuilder b;
  const std::size_t N = b.add_state("N", false);
  const std::size_t R = b.add_state("R", true);
  b.set_transition(N, UC::le(N, d - 1) && zero_outside({N}, 2));
  b.set_transition(R, UC::le(N, d) && zero_outside({N}, 2));
  return b.build();
}

UOPAutomaton aut_perfect_matching() {
  AutomatonBuilder b;
  const std::size_t M = b.add_state("M", true);   // subtree perfectly matched
  const std::size_t U = b.add_state("U", false);  // root of subtree unmatched
  b.set_transition(M, UC::exactly(U, 1));         // match the unique U child
  b.set_transition(U, UC::exactly(U, 0));         // all children internally matched
  return b.build();
}

UOPAutomaton aut_perfect_code() {
  AutomatonBuilder b;
  const std::size_t B = b.add_state("B", true);   // in the code
  const std::size_t D = b.add_state("D", true);   // dominated by one child
  const std::size_t N = b.add_state("N", false);  // waits for the parent
  b.set_transition(B, zero_outside({N}, 3));                        // children all N
  b.set_transition(D, UC::exactly(B, 1) && zero_outside({B, D}, 3));  // one B, rest D
  b.set_transition(N, zero_outside({D}, 3));                        // children all D
  return b.build();
}

UOPAutomaton aut_radius_le(std::size_t k) {
  AutomatonBuilder b;
  std::vector<std::size_t> h(k + 1);
  for (std::size_t i = 0; i <= k; ++i)
    h[i] = b.add_state("H" + std::to_string(i), true);
  for (std::size_t i = 0; i <= k; ++i) {
    // Children may only use H_0..H_{i-1}.
    UC c = UC::always_true();
    for (std::size_t j = i; j <= k; ++j) c = c && UC::exactly(h[j], 0);
    b.set_transition(h[i], c);
  }
  return b.build();
}

UOPAutomaton aut_independent_set_ge(std::size_t c) {
  if (c == 0) throw std::invalid_argument("aut_independent_set_ge: c must be >= 1");
  // State (A, B): A = min(c, max IS of the subtree containing the root),
  // B = min(c, max IS avoiding the root). Recurrences over children (a_i,b_i):
  //   A = min(c, 1 + sum b_i),   B = min(c, sum max(a_i, b_i)).
  // Every subtree has A >= 1, so reachable states have 1 <= A <= c, 0 <= B <= c.
  AutomatonBuilder bld;
  const std::size_t states = c * (c + 1);
  auto sid = [c](std::size_t a, std::size_t b) { return (a - 1) * (c + 1) + b; };
  std::vector<std::size_t> p(states), q(states);  // per-child contributions
  for (std::size_t a = 1; a <= c; ++a)
    for (std::size_t b = 0; b <= c; ++b) {
      const std::size_t s =
          bld.add_state("(" + std::to_string(a) + "," + std::to_string(b) + ")",
                        std::max(a, b) >= c);
      p[s] = b;               // contribution to sum b_i
      q[s] = std::max(a, b);  // contribution to sum max(a_i, b_i)
      (void)sid;
    }

  // Builds the transition constraint for target state (A, B).
  auto transition_for = [&](std::size_t A, std::size_t B) {
    UC out = UC::always_false();
    if (B < c) {
      // sum q y == B exactly: q >= 1 for every reachable state, so every
      // child is pinned; enumerate all exact vectors.
      std::vector<std::size_t> y(states, 0);
      auto rec = [&](auto&& self, std::size_t s, std::size_t left_q) -> void {
        if (s == states) {
          if (left_q != 0) return;
          std::size_t s1 = 0;
          for (std::size_t i = 0; i < states; ++i) s1 += p[i] * y[i];
          const bool ok_a = (A < c) ? (s1 == A - 1) : (s1 >= c - 1);
          if (!ok_a) return;
          UC box = UC::always_true();
          for (std::size_t i = 0; i < states; ++i) box = box && UC::exactly(i, y[i]);
          out = out || box;
          return;
        }
        for (std::size_t cnt = 0; cnt * q[s] <= left_q; ++cnt) {
          y[s] = cnt;
          self(self, s + 1, left_q - cnt * q[s]);
          if (q[s] == 0) break;  // unreachable (q >= 1), defensive
        }
        y[s] = 0;
      };
      rec(rec, 0, B);
      return out;
    }
    // B == c: sum q y >= c (monotone).
    if (A < c) {
      // sum p y == A-1 exactly: pin the p>0 states; the p==0 states only
      // need a minimal q-cover of what is left, with no upper bound.
      std::vector<std::size_t> contributors, free_states;
      for (std::size_t s = 0; s < states; ++s)
        (p[s] > 0 ? contributors : free_states).push_back(s);
      std::vector<std::size_t> y(states, 0);
      auto rec_free = [&](auto&& self, std::size_t idx, std::size_t need_q) -> void {
        if (need_q == 0) {
          UC box = UC::always_true();
          for (std::size_t s : contributors) box = box && UC::exactly(s, y[s]);
          for (std::size_t s : free_states) box = box && UC::ge(s, y[s]);
          out = out || box;
          return;
        }
        if (idx == free_states.size()) return;
        const std::size_t s = free_states[idx];
        // Minimality: take just enough of state s (0..ceil(need/q)).
        for (std::size_t cnt = 0; ; ++cnt) {
          y[s] = cnt;
          const std::size_t covered = cnt * q[s];
          self(self, idx + 1, covered >= need_q ? 0 : need_q - covered);
          if (covered >= need_q) break;
        }
        y[s] = 0;
      };
      auto rec_pinned = [&](auto&& self, std::size_t idx, std::size_t left_p) -> void {
        if (idx == contributors.size()) {
          if (left_p != 0) return;
          std::size_t covered = 0;
          for (std::size_t s : contributors) covered += q[s] * y[s];
          rec_free(rec_free, 0, covered >= c ? 0 : c - covered);
          return;
        }
        const std::size_t s = contributors[idx];
        for (std::size_t cnt = 0; cnt * p[s] <= left_p; ++cnt) {
          y[s] = cnt;
          self(self, idx + 1, left_p - cnt * p[s]);
        }
        y[s] = 0;
      };
      rec_pinned(rec_pinned, 0, A - 1);
      return out;
    }
    // A == c and B == c: both sums are thresholds; enumerate minimal joint
    // covers (entries never exceed c per sum) and leave them open above.
    std::vector<std::size_t> y(states, 0);
    auto emit_if_minimal = [&]() {
      std::size_t s1 = 0, s2 = 0;
      for (std::size_t s = 0; s < states; ++s) {
        s1 += p[s] * y[s];
        s2 += q[s] * y[s];
      }
      if (s1 + 1 < c || s2 < c) return;
      // Minimal: removing one child anywhere breaks a constraint.
      for (std::size_t s = 0; s < states; ++s) {
        if (y[s] == 0) continue;
        if (s1 - p[s] + 1 >= c && s2 - q[s] >= c) return;  // not minimal
      }
      UC box = UC::always_true();
      for (std::size_t s = 0; s < states; ++s) box = box && UC::ge(s, y[s]);
      out = out || box;
    };
    auto rec = [&](auto&& self, std::size_t s) -> void {
      if (s == states) {
        emit_if_minimal();
        return;
      }
      for (std::size_t cnt = 0; cnt <= c; ++cnt) {  // > c per state never minimal
        y[s] = cnt;
        self(self, s + 1);
      }
      y[s] = 0;
    };
    rec(rec, 0);
    return out;
  };

  for (std::size_t A = 1; A <= c; ++A)
    for (std::size_t B = 0; B <= c; ++B)
      bld.set_transition(sid(A, B), transition_for(A, B));
  return bld.build();
}

UOPAutomaton aut_leaf_count_ge(std::size_t c) {
  if (c == 0) throw std::invalid_argument("aut_leaf_count_ge: c must be >= 1");
  AutomatonBuilder b;
  // K_j = "subtree contains exactly j leaves" for j < c, K_c = ">= c leaves".
  std::vector<std::size_t> K(c + 1);
  for (std::size_t j = 0; j <= c; ++j)
    K[j] = b.add_state("K" + std::to_string(j), j == c);
  const std::size_t A = b.add_state("A", true);  // leaf chosen as root

  // Enumerate child-count boxes realizing a given (possibly capped) leaf sum.
  // Children in K_0 contribute nothing and are unconstrained; a child in K_j
  // contributes j. "sum == s" with s < c: finitely many compositions since
  // every contributing child adds >= 1.
  auto sum_eq = [&](std::size_t s) {
    // Recursively enumerate y_{K_1}..y_{K_c} with sum of i*y_i == s.
    UC out = UC::always_false();
    std::vector<std::size_t> counts(c + 1, 0);
    auto emit = [&]() {
      UC box = UC::always_true();
      for (std::size_t j = 1; j <= c; ++j) box = box && UC::exactly(K[j], counts[j]);
      box = box && UC::exactly(A, 0);
      out = out || box;
    };
    auto rec = [&](auto&& self, std::size_t j, std::size_t left) -> void {
      if (j > c) {
        if (left == 0) emit();
        return;
      }
      for (std::size_t y = 0; y * j <= left; ++y) {
        counts[j] = y;
        self(self, j + 1, left - y * j);
      }
      counts[j] = 0;
    };
    rec(rec, 1, s);
    return out;
  };

  // K_0: internal node, no leaves below: children all K_0 (and none is A);
  // a childless node is a leaf, not K_0, so require >= 1 child.
  {
    UC internal = UC::always_true();
    for (std::size_t j = 1; j <= c; ++j) internal = internal && UC::exactly(K[j], 0);
    internal = internal && UC::exactly(A, 0) && UC::ge(K[0], 1);
    b.set_transition(K[0], internal);
  }
  // K_j for 0 < j < c: either a leaf itself (j == 1, zero children) or an
  // internal node whose children sum to j.
  for (std::size_t j = 1; j < c; ++j) {
    UC t = sum_eq(j) && UC::ge(K[0], 0);
    if (j == 1) {
      UC leaf = UC::always_true();
      for (std::size_t q = 0; q <= c; ++q) leaf = leaf && UC::exactly(K[q], 0);
      leaf = leaf && UC::exactly(A, 0);
      t = t || leaf;
    }
    // Exclude the all-zero-children case for internal reading when j >= 2 is
    // automatic (sum j >= 2 forces a contributing child). For j == 1 the
    // sum_eq(1) box requires one K_1 child, distinct from the leaf box.
    b.set_transition(K[j], t);
  }
  // K_c: sum >= c. Equivalent to NOT(sum == 0..c-1), computed directly:
  // there is a multiset of children whose contributions reach c; since
  // contributions cap at c, "sum >= c" == OR over compositions of c where the
  // last coordinate may exceed (use >= on one coordinate). Simplest exact
  // form: negate the union of sum_eq(0..c-1) *and* require no A child and not
  // a childless leaf (a leaf is K_1).
  {
    UC small = UC::always_false();
    for (std::size_t s = 0; s < c; ++s) small = small || sum_eq(s);
    // childless: all counts zero — that's sum_eq(0) with zero K_0 children;
    // sum_eq(0) already covers it (all counts zero boxes include y_{K_0}
    // unconstrained... note sum_eq fixes only K_1..K_c and A; K_0 free), so a
    // leaf (all children counts 0) satisfies sum_eq(0) and is excluded from
    // K_c here, as desired — c >= 1 and a leaf has exactly 1 leaf (it may use
    // K_1; for c == 1, K_1 == K_c accepts via the leaf box added below).
    UC t = (!small) && UC::exactly(A, 0);
    if (c == 1) {
      UC leaf = UC::always_true();
      for (std::size_t q = 0; q <= c; ++q) leaf = leaf && UC::exactly(K[q], 0);
      leaf = leaf && UC::exactly(A, 0);
      t = t || leaf;
    }
    b.set_transition(K[c], t);
  }
  // A: a leaf used as root; its single child's subtree must contain the other
  // c-1 leaves (or more).
  {
    UC t = UC::always_false();
    if (c >= 2) {
      UC box = UC::exactly(K[c - 1], 1);
      for (std::size_t j = 0; j <= c; ++j)
        if (j != c - 1) box = box && UC::exactly(K[j], 0);
      t = t || (box && UC::exactly(A, 0));
    }
    UC box_full = UC::exactly(K[c], 1);
    for (std::size_t j = 0; j < c; ++j) box_full = box_full && UC::exactly(K[j], 0);
    t = t || (box_full && UC::exactly(A, 0));
    b.set_transition(A, t);
  }
  return b.build();
}

namespace {

bool oracle_path(const Graph& t) {
  for (Vertex v = 0; v < t.vertex_count(); ++v)
    if (t.degree(v) > 2) return false;
  return true;
}

bool oracle_star(const Graph& t) {
  const std::size_t n = t.vertex_count();
  if (n <= 2) return true;
  std::size_t centers = 0;
  for (Vertex v = 0; v < n; ++v) {
    if (t.degree(v) == n - 1)
      ++centers;
    else if (t.degree(v) != 1)
      return false;
  }
  return centers == 1;
}

bool oracle_caterpillar(const Graph& t) {
  // The non-leaves of a tree span a subtree, which is a path (or empty)
  // exactly when no non-leaf has more than two non-leaf neighbours.
  for (Vertex v = 0; v < t.vertex_count(); ++v) {
    if (t.degree(v) < 2) continue;
    std::size_t inner = 0;
    for (Vertex w : t.neighbors(v))
      if (t.degree(w) >= 2 && ++inner > 2) return false;
  }
  return true;
}

bool oracle_max_degree_3(const Graph& t) {
  for (Vertex v = 0; v < t.vertex_count(); ++v)
    if (t.degree(v) > 3) return false;
  return true;
}

bool oracle_perfect_matching(const Graph& t) {
  // Greedy from the leaves is optimal on trees.
  const std::size_t n = t.vertex_count();
  if (n % 2 != 0) return false;
  std::vector<bool> matched(n, false), removed(n, false);
  std::vector<std::size_t> degree(n);
  std::vector<Vertex> leaves;
  for (Vertex v = 0; v < n; ++v) {
    degree[v] = t.degree(v);
    if (degree[v] <= 1) leaves.push_back(v);
  }
  std::size_t pairs = 0;
  while (!leaves.empty()) {
    const Vertex v = leaves.back();
    leaves.pop_back();
    if (removed[v]) continue;
    removed[v] = true;
    if (matched[v]) continue;
    // v must match its unique remaining neighbor.
    Vertex partner = SIZE_MAX;
    for (Vertex w : t.neighbors(v))
      if (!removed[w]) {
        partner = w;
        break;
      }
    if (partner == SIZE_MAX) return false;  // unmatched isolated leaf
    matched[v] = matched[partner] = true;
    removed[partner] = true;
    ++pairs;
    for (Vertex w : t.neighbors(partner))
      if (!removed[w] && --degree[w] == 1) leaves.push_back(w);
  }
  return pairs * 2 == n;
}

bool oracle_perfect_code(const Graph& t) {
  const std::size_t n = t.vertex_count();
  if (n <= 16) {
    // Exhaustive reference for small trees (exercised against the DP below by
    // the automata tests).
    for (std::uint64_t code = 0; code < (std::uint64_t{1} << n); ++code) {
      bool ok = true;
      for (Vertex v = 0; v < n && ok; ++v) {
        std::size_t dominators = (code >> v) & 1u;
        for (Vertex w : t.neighbors(v)) dominators += (code >> w) & 1u;
        ok = dominators == 1;
      }
      if (ok) return true;
    }
    return false;
  }
  // Tree DP: can[v][s] for s in {in-code, dominated-by-child, needs-parent}.
  const RootedTree rt = RootedTree::from_graph(t, 0);
  const auto order = rt.preorder();
  std::vector<std::array<bool, 3>> can(n, {false, false, false});
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t v = *it;
    bool all_needs_parent = true;   // every child in state 2
    bool all_dominated = true;      // every child in state 1
    std::size_t ways_one_in_code = 0;
    for (std::size_t ch : rt.children(v)) {
      all_needs_parent = all_needs_parent && can[ch][2];
      all_dominated = all_dominated && can[ch][1];
    }
    // state 1 needs exactly one child in code, the others dominated.
    for (std::size_t ch : rt.children(v)) {
      if (!can[ch][0]) continue;
      bool rest_ok = true;
      for (std::size_t other : rt.children(v))
        if (other != ch && !can[other][1]) rest_ok = false;
      if (rest_ok) ++ways_one_in_code;
    }
    can[v][0] = all_needs_parent;
    can[v][1] = ways_one_in_code >= 1;
    can[v][2] = all_dominated;
  }
  return can[rt.root()][0] || can[rt.root()][1];
}

constexpr std::size_t kRadiusBound = 3;

// On a tree, radius = ceil(diameter / 2), and the centers are the midpoints
// of any diameter path — both computable with two BFS passes.
std::size_t tree_radius(const Graph& t) {
  const auto d0 = t.bfs_distances(0);
  Vertex far = 0;
  for (Vertex v = 0; v < t.vertex_count(); ++v)
    if (d0[v] > d0[far]) far = v;
  const auto d1 = t.bfs_distances(far);
  std::size_t diameter = 0;
  for (std::size_t d : d1) diameter = std::max(diameter, d);
  return (diameter + 1) / 2;
}

bool oracle_radius_le_3(const Graph& t) { return tree_radius(t) <= kRadiusBound; }

constexpr std::size_t kLeafBound = 4;

bool oracle_leaf_count_ge_4(const Graph& t) {
  std::size_t leaves = 0;
  for (Vertex v = 0; v < t.vertex_count(); ++v)
    if (t.degree(v) <= 1) ++leaves;
  return leaves >= kLeafBound;
}

std::vector<Vertex> roots_all(const Graph& g) { return all_vertices(g); }
std::vector<Vertex> roots_internal(const Graph& g) { return internal_vertices(g); }

std::vector<Vertex> roots_centers(const Graph& g) {
  // Centers of a tree = midpoints of a diameter path (double BFS, O(n)).
  const auto d0 = g.bfs_distances(0);
  Vertex a = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    if (d0[v] > d0[a]) a = v;
  const auto d1 = g.bfs_distances(a);
  Vertex b = a;
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    if (d1[v] > d1[b]) b = v;
  const std::size_t diameter = d1[b];
  // Walk back from b toward a collecting the middle vertex (or two).
  std::vector<Vertex> centers;
  Vertex cur = b;
  std::size_t walked = 0;
  while (true) {
    if (walked == diameter / 2 || walked == (diameter + 1) / 2)
      if (centers.empty() || centers.back() != cur) centers.push_back(cur);
    if (d1[cur] == 0) break;
    for (Vertex w : g.neighbors(cur))
      if (d1[w] + 1 == d1[cur]) {
        cur = w;
        break;
      }
    ++walked;
  }
  return centers;
}

}  // namespace

std::vector<NamedAutomaton> standard_tree_automata() {
  return {
      {"path", aut_path(), &oracle_path, &roots_all, RootPolicy::kAllVertices},
      {"star", aut_star(), &oracle_star, &roots_all, RootPolicy::kAllVertices},
      {"caterpillar", aut_caterpillar(), &oracle_caterpillar, &roots_internal,
       RootPolicy::kInternalVertices},
      {"max-degree<=3", aut_max_degree_le(3), &oracle_max_degree_3, &roots_all,
       RootPolicy::kAllVertices},
      {"perfect-matching", aut_perfect_matching(), &oracle_perfect_matching, &roots_all,
       RootPolicy::kAllVertices},
      {"perfect-code", aut_perfect_code(), &oracle_perfect_code, &roots_all,
       RootPolicy::kAllVertices},
      {"radius<=3", aut_radius_le(kRadiusBound), &oracle_radius_le_3, &roots_centers,
       RootPolicy::kGeneric},
      {"leaves>=4", aut_leaf_count_ge(kLeafBound), &oracle_leaf_count_ge_4, &roots_all,
       RootPolicy::kAllVertices},
  };
}

}  // namespace lcert
