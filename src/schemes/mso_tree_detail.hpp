// Shared solver core of the MSO-on-trees prover (DESIGN.md §12–§13).
//
// prove_batch (cold, per-root) and the incremental recertification prover
// (streaming edits against a live instance) are the same computation — a
// bottom-up feasibility-mask pass and a top-down run extraction over a
// RootedTree, memoized on child-mask profiles — differing only in *which
// vertices* they touch. This header factors that computation out of
// MsoTreeScheme so both paths call literally the same code: the cold root
// loop is one function (SolveCore::solve), and both passes are per-vertex
// memo lookups the incremental repair calls one vertex at a time. Bit-identity
// between the paths is then a statement about vertex selection, not about two
// implementations staying in sync.
//
// MsoMemo is the memo store. It used to be function-local in prove_batch;
// the incremental prover keeps one alive across edits (values are pure
// functions of their keys — a sorted child-mask multiset for feasibility, an
// ordered child-mask tuple plus parent state for extraction — so persistence
// can never change a result, only hit rates). maybe_trim() bounds growth
// under unbounded edit streams.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/automata/box_index.hpp"
#include "src/automata/uop_automaton.hpp"
#include "src/cert/prove.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/graph/tree_iso.hpp"

namespace lcert::mso_detail {

/// Memo store of the MSO tree prover. Keys are child-mask profiles, not
/// subtree iso codes (DESIGN.md §12): feasibility is order-invariant
/// (sorted multiset), extraction follows edge insertion order (ordered
/// tuple × parent state).
struct MsoMemo {
  SubtreeCodeInterner mask_multisets;  ///< sorted child-mask multisets
  SubtreeCodeInterner mask_tuples;     ///< ordered child-mask tuples
  std::vector<std::uint64_t> feas_memo;   ///< multiset id -> mask
  std::vector<std::uint8_t> feas_known;   ///< multiset id -> filled?
  std::unordered_map<std::uint64_t, std::vector<std::size_t>> extract_memo;
  std::vector<std::size_t> key;  ///< lookup scratch, reused across vertices

  void clear() {
    mask_multisets = SubtreeCodeInterner();
    mask_tuples = SubtreeCodeInterner();
    feas_memo.clear();
    feas_known.clear();
    extract_memo.clear();
  }

  /// Entry count across both memo families (the trim heuristic's measure).
  std::size_t entry_count() const {
    return mask_multisets.size() + extract_memo.size();
  }

  /// Clears everything when the store has grown past `limit` entries.
  /// All-or-nothing: the two interners and the value tables reference each
  /// other's ids, so partial eviction would dangle. Returns true if cleared.
  bool maybe_trim(std::size_t limit = std::size_t{1} << 20) {
    if (entry_count() <= limit) return false;
    clear();
    return true;
  }
};

/// One rooting of a tree instance as the cold prover solves it.
struct RootSolve {
  RootedTree tree;
  std::vector<std::uint64_t> mask;  ///< per-vertex feasibility masks
  std::vector<std::size_t> run;     ///< accepting run; empty when rejected
};

/// The solver: automaton parameters hoisted once, methods for each pass.
/// Pointers borrow from the owning MsoTreeScheme and must outlive the core.
/// Every pass runs serially on the calling thread: the memo collapses each
/// tree level to a handful of distinct computations (DESIGN.md §11).
struct SolveCore {
  const UOPAutomaton* automaton = nullptr;
  const BoxIndex* boxes = nullptr;  ///< per-state canonical DNF, indexed
  std::size_t k = 0;                                ///< state count (<= 64)
  unsigned width = 1;                               ///< state field bit width
  std::string scheme_name;                          ///< for error messages

  /// Feasibility mask of a vertex from its children's masks: bit q set iff
  /// some box of delta(q) admits a child assignment — exactly the predicate
  /// find_accepting_run evaluates, resolved through the context's solver
  /// backend (exact booleans, no assignment materialized).
  std::uint64_t mask_from_children(const std::vector<std::uint64_t>& child_masks,
                                   ProverContext& ctx) const;

  /// States for a vertex's children given run state q: first feasible box
  /// wins, same box order and same flow construction as find_accepting_run.
  std::vector<std::size_t> extract_from_children(
      const std::vector<std::uint64_t>& child_masks, std::size_t q,
      ProverContext& ctx) const;

  /// The cold prover's root loop: for each of `roots` in order, bottom-up
  /// masks, and at the first root whose mask accepts (find_accepting_run's
  /// choice) the top-down run. When no root accepts, returns the first
  /// root's masks with an empty run. `memo` may be null (memoization off).
  RootSolve solve(const Graph& g, const std::vector<Vertex>& roots,
                  ProverContext& ctx, MsoMemo* memo) const;

  /// Smallest accepting state set in `root_mask` — find_accepting_run's
  /// choice; SIZE_MAX when none.
  std::size_t accepting_state(std::uint64_t root_mask) const;

  /// Top-down run extraction over every vertex, root level first. `run`
  /// must be sized t.size() with run[t.root()] already set.
  void top_down(const RootedTree& t,
                const std::vector<std::vector<std::size_t>>& levels,
                ProverContext& ctx, MsoMemo* memo,
                const std::vector<std::uint64_t>& mask,
                std::vector<std::size_t>& run) const;

  /// The 3*k certificate payload table: the run state is shape-determined,
  /// the mod-3 depth counter is the one position-dependent field — patching
  /// a certificate is selecting one of three precomputed variants per state.
  std::vector<Certificate> payload_table(ProverContext& ctx) const;

  // --- Single-vertex memoized accessors (both passes, incremental repair) --

  /// mask_from_children for one vertex through the memo (counts one hit or
  /// miss in ctx); straight computation when memo is null.
  std::uint64_t memo_mask(const RootedTree& t,
                          const std::vector<std::uint64_t>& mask, std::size_t v,
                          ProverContext& ctx, MsoMemo* memo) const;

  /// extract_from_children for one vertex through the memo. The returned
  /// reference points into the memo (stable: node-based map), or into
  /// `scratch` when memo is null.
  const std::vector<std::size_t>& memo_extract(
      const RootedTree& t, const std::vector<std::uint64_t>& mask,
      std::size_t v, std::size_t q, ProverContext& ctx, MsoMemo* memo,
      std::vector<std::size_t>& scratch) const;
};

}  // namespace lcert::mso_detail
