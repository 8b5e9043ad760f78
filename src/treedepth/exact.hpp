// Exact treedepth by branch-and-bound over vertex bitmasks.
//
// Ground truth for testing the certification schemes and the lower-bound
// gadget (Lemma 7.3), and the elimination tree the provers certify at small
// n. td over connected S satisfies
//   td(S) = 1 + min_{v in S} max_{components C of S - v} td(C).
// The solver evaluates this recursion under a cap: roots are tried in
// ascending order, each root's components get the cap best - 2, a root is
// dropped at its first component over the cap, and the scan stops once best
// meets a known lower bound. One memo per mask holds td with its root, or a
// lower bound when td exceeded the cap it was asked under. A root replaces
// the incumbent only on a strict improvement, so every mask keeps the first
// optimal root in vertex order: the treedepth and the elimination tree are
// exactly those of the full subset DP over every connected subset, which
// tests/test_treedepth.cpp keeps as the reference. Closed forms for
// paths/cycles/cliques give an independent cross-check at larger sizes.
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/graph/graph.hpp"
#include "src/graph/rooted_tree.hpp"

namespace lcert {

/// Exact treedepth (levels convention: td(K_1) = 1). Requires n <= 25.
std::size_t exact_treedepth(const Graph& g);

/// Exact treedepth together with an optimal (coherent) elimination tree.
struct TreedepthResult {
  std::size_t treedepth;
  RootedTree model;
};
TreedepthResult exact_treedepth_with_model(const Graph& g);

/// Closed forms: td(P_n) = ceil(log2(n+1)); td(C_n) = 1 + td(P_{n-1});
/// td(K_n) = n.
std::size_t treedepth_of_path(std::size_t n) noexcept;
std::size_t treedepth_of_cycle(std::size_t n) noexcept;

/// An optimal elimination tree of a path on n vertices (balanced binary
/// "midpoint" recursion, the Figure 1 construction).
RootedTree path_model(std::size_t n);

}  // namespace lcert
