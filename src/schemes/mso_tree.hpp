// Theorem 2.2: any MSO property of trees has an O(1)-bit certification.
//
// Certificates carry (distance to a prover-chosen root, mod 3) and the
// vertex's state in an accepting run of a UOP tree automaton recognizing the
// property — 2 + ceil(log2 |Q|) bits, independent of n. The verifier
// re-derives the orientation from the mod-3 counters (a classic argument
// forces exactly one root on a tree), counts the states of its children, and
// evaluates the automaton's Presburger transition; the root also checks
// acceptance.
//
// The paper's certificate also embeds the (constant-size) description of the
// automaton, which each vertex compares against the formula; here the
// automaton is a parameter of the verifier — an equivalent constant-size
// factoring, since prover and verifier share the property being certified.
//
// Promise model: instances are trees (the network itself). Acyclicity is not
// re-certified — it cannot be with O(1) bits (Göös–Suomela) — so behaviour on
// non-tree inputs is unspecified, exactly as in the paper.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "src/automata/box_index.hpp"
#include "src/automata/library.hpp"
#include "src/cert/scheme.hpp"
#include "src/obs/metrics.hpp"

namespace lcert {

namespace mso_detail {
struct SolveCore;  // src/schemes/mso_tree_detail.hpp
}

class MsoTreeScheme final : public Scheme {
 public:
  explicit MsoTreeScheme(NamedAutomaton automaton);

  std::string name() const override { return "mso-tree[" + automaton_.name + "]"; }
  bool holds(const Graph& g) const override;
  std::optional<std::vector<Certificate>> assign(const Graph& g) const override;
  /// Memoized batch prover: serial bottom-up masks and top-down run
  /// extraction by tree level (mso_detail::SolveCore::solve), then a
  /// parallel per-vertex certificate copy. Bit-identical to assign() for
  /// every thread count and with memoization on or off: the feasibility
  /// masks it computes equal find_accepting_run's per-vertex boolean rows,
  /// and the extraction solver is the same flow construction in the same
  /// edge order. Memo keys: sorted child-mask multiset for feasibility
  /// (order-invariant), (ordered child-mask tuple, parent state) for
  /// extraction (the flow's choice depends on child order). Falls back to
  /// assign() when state_count > 64 (masks are single words).
  std::optional<std::vector<Certificate>> prove_batch(const Graph& g,
                                                      ProverContext& ctx) const override;
  bool verify(const ViewRef& view) const override;
  /// Hot-loop override: hoists the automaton parameters (state count, field
  /// widths, compiled transition boxes) out of the per-vertex loop; decides
  /// each view exactly as verify() does.
  void verify_batch(std::span<const ViewRef> views,
                    std::span<std::uint8_t> accept) const override;
  /// Names the automaton state with the widest DNF fan-out among the batch's
  /// vertices ("state=<name> boxes=<canonical> raw_boxes=<raw>
  /// vertices=<k> probes/vertex=<avg>") — the outlier sampler's attribution
  /// for slow batches. probes/vertex is measured by replaying a sample of
  /// the worst state's views through the indexed check.
  std::string slow_batch_attribution(std::span<const ViewRef> views) const override;

  /// Max canonical interval boxes in any single automaton state — the DNF
  /// fan-out after canonicalization (the raw fan-out, ~29k for leaves>=4,
  /// is exposed by the boxes_per_state_raw gauge).
  std::size_t max_boxes_per_state() const noexcept;

  /// Incremental recertification prover (DESIGN.md §13): maintains a live
  /// rooted tree + feasibility masks + run states across streaming edits and
  /// repairs only the dirty slice per edit. Returns nullptr when the
  /// automaton has more than 64 states (masks are single words). The prover
  /// copies this scheme, so it is self-contained.
  std::unique_ptr<IncrementalProver> make_incremental_prover(
      const RunOptions& options) const override;

  /// Exact certificate width in bits (constant across n).
  std::size_t certificate_bits() const noexcept { return 2 + state_bits_; }

  /// Semantic attack surface for the SAT-guided forgery search: certificates
  /// here ARE run encodings (depth mod 3, then the state), so the audit can
  /// search the space of accepting runs directly instead of flipping bits.
  std::optional<RunForgerySurface> run_forgery_surface() const override;

 private:
  friend class MsoTreeIncrementalProver;  // src/schemes/mso_tree_incr.cpp

  /// Solver core view over this scheme's automaton (borrowing pointers; the
  /// scheme must outlive the core).
  mso_detail::SolveCore solve_core() const;

  NamedAutomaton automaton_;
  unsigned state_bits_;
  /// transition(q) compiled to the canonical DNF once at construction: the
  /// verifier runs per vertex per round, and a first-match sweep over a
  /// handful of canonical boxes replaces the constraint-AST walk (and the
  /// ~29k-box raw sweep of the leaves>=4 cliff). assign(), the batch and
  /// incremental provers and the run-forgery surface share these lists.
  std::vector<BoxIndex> transition_index_;
  /// Raw (pre-canonicalization) DNF size per state, kept for the
  /// boxes_per_state_raw gauge and slow-batch attribution.
  std::vector<std::size_t> raw_boxes_per_state_;
  obs::Counter box_probes_;  ///< verify/box_probes: boxes fully tested
};

}  // namespace lcert
