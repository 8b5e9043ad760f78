// Unary ordering Presburger (UOP) tree automata, the machinery behind
// Theorem 2.2.
//
// By Proposition 8 of [7], a set of unordered, unranked, node-labeled rooted
// trees is MSO-definable iff it is recognized by such an automaton: the
// transition relation maps (state q, label L) to a unary Presburger
// constraint over the multiset of children states; a run is accepting when
// every vertex's configuration is correct and the root carries an accepting
// state. The MSO -> automaton translation of [7] is non-constructive /
// non-elementary; per DESIGN.md §5 the library ships hand-compiled automata
// (src/automata/library.*) that are property-tested against the brute-force
// MSO evaluator.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/automata/box_index.hpp"
#include "src/automata/presburger.hpp"
#include "src/graph/rooted_tree.hpp"

namespace lcert {

/// A UOP tree automaton A = (Q, Lambda, delta, F).
struct UOPAutomaton {
  std::size_t state_count = 0;
  std::size_t label_count = 1;  ///< node labels (1 for plain trees)
  std::vector<std::string> state_names;
  std::vector<bool> accepting;
  /// delta[q * label_count + label] = constraint over children-state counts.
  std::vector<UnaryConstraint> delta;

  const UnaryConstraint& transition(std::size_t state, std::size_t label = 0) const;

  /// Sanity: sizes agree, at least one state.
  void validate() const;
};

/// Convenience builder.
class AutomatonBuilder {
 public:
  explicit AutomatonBuilder(std::size_t label_count = 1) : label_count_(label_count) {}

  /// Adds a state; returns its index. Transition defaults to always_false.
  std::size_t add_state(std::string name, bool accepting);

  /// Sets delta(state, label).
  void set_transition(std::size_t state, UnaryConstraint c, std::size_t label = 0);

  UOPAutomaton build() const;

 private:
  std::size_t label_count_;
  std::vector<std::string> names_;
  std::vector<bool> accepting_;
  std::vector<std::optional<UnaryConstraint>> delta_;
};

/// A run: a state per tree vertex.
using Run = std::vector<std::size_t>;

/// Checks that `run` is an accepting run of `a` on `t` (labels optional;
/// defaults to all-zero labels).
bool is_accepting_run(const UOPAutomaton& a, const RootedTree& t, const Run& run,
                      const std::vector<std::size_t>* labels = nullptr);

/// Decides whether an accepting run exists and returns one if so.
/// Bottom-up feasible-state computation; the per-vertex assignment problem
/// ("can children pick states from their feasible sets so the counts land in
/// one of the constraint's interval boxes?") is solved as a bounded-flow
/// feasibility problem.
std::optional<Run> find_accepting_run(const UOPAutomaton& a, const RootedTree& t,
                                      const std::vector<std::size_t>* labels = nullptr);

/// find_accepting_run with the transition DNFs already built: boxes[q *
/// a.label_count + label] must hold the canonical boxes of
/// a.transition(q, label), i.e. BoxIndex(transition.to_boxes(state_count)).
/// The overload above builds exactly that list and delegates here; callers
/// that keep the list (MsoTreeScheme) skip re-expanding the DNF per call.
std::optional<Run> find_accepting_run(const UOPAutomaton& a, const RootedTree& t,
                                      std::span<const BoxIndex> boxes,
                                      const std::vector<std::size_t>* labels = nullptr);

/// Language membership.
inline bool accepts(const UOPAutomaton& a, const RootedTree& t,
                    const std::vector<std::size_t>* labels = nullptr) {
  return find_accepting_run(a, t, labels).has_value();
}

/// Building block for the memoized batch prover (MsoTreeScheme::prove_batch):
/// the per-vertex assignment problem of find_accepting_run, taken over
/// feasibility *masks* — bit q of child_masks[i] is set iff state q is
/// feasible at the i-th child (requires state_count <= 64). Decides whether
/// the children can pick states from their feasible sets so the counts land
/// in `box`; on success writes each child's chosen state into `assignment`.
///
/// Contract: builds the exact same bounded-flow problem, in the exact same
/// node/edge insertion order, as the solver inside find_accepting_run — so
/// the extracted assignment (which is whatever the flow solver picks, and
/// therefore sensitive to edge order) is identical. This is what lets the
/// memoized prover cache assignments by (ordered child shapes, parent state)
/// and still reproduce find_accepting_run's output bit-for-bit.
bool uop_assign_children_masked(std::span<const std::uint64_t> child_masks,
                                const IntervalBox& box, std::size_t state_count,
                                std::vector<std::size_t>& assignment);

}  // namespace lcert
