// Per-state box list of a canonical interval-box DNF (DESIGN.md §16).
//
// The verifier's transition check and the prover's feasibility sweep both ask
// the same shape of question against a state's box list: "which is the FIRST
// box (in DNF order) that ...?". After canonicalization (canonicalize_boxes)
// the largest DNF of any library automaton has 7 boxes, so a linear sweep
// over struct-of-arrays lo/hi rows answers both questions directly. The
// stored order is the first-match order; certificates and accepting runs
// depend on it and on nothing else.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/automata/presburger.hpp"

namespace lcert {

class BoxIndex {
 public:
  static constexpr std::size_t npos = SIZE_MAX;

  BoxIndex() = default;
  /// Takes the DNF list (usually canonicalize_boxes output) verbatim — the
  /// stored order IS the first-match order. All boxes must share one arity.
  explicit BoxIndex(std::vector<IntervalBox> boxes);

  std::size_t size() const noexcept { return boxes_.size(); }
  std::size_t arity() const noexcept { return arity_; }
  const IntervalBox& box(std::size_t i) const { return boxes_[i]; }
  const std::vector<IntervalBox>& boxes() const noexcept { return boxes_; }

  struct Hit {
    std::size_t index = npos;  ///< first containing box in DNF order
    std::size_t probes = 0;    ///< boxes tested to find it
  };

  /// First box containing `counts`, by a linear sweep over the SoA rows.
  /// Throws on arity mismatch (an empty index matches nothing at any width).
  Hit first_containing(const std::size_t* counts, std::size_t count_len) const;
  Hit first_containing(const std::vector<std::size_t>& counts) const {
    return first_containing(counts.data(), counts.size());
  }

  /// False when box i fails a necessary condition of feasibility for
  /// children with per-state `supply` (supply[q] = #children whose mask
  /// allows state q, arity() entries) and `child_count` children: some
  /// lo[q] > supply[q], or sum(lo) > child_count. Every exact decision
  /// procedure rejects such a box, so sweeps may skip it unasked.
  bool may_be_feasible(std::size_t i, const std::size_t* supply,
                       std::size_t child_count) const noexcept {
    if (lo_sum_[i] > child_count) return false;
    const std::size_t* lo = lo_.data() + i * arity_;
    for (std::size_t q = 0; q < arity_; ++q)
      if (lo[q] > supply[q]) return false;
    return true;
  }

 private:
  std::vector<IntervalBox> boxes_;
  std::size_t arity_ = 0;
  std::vector<std::size_t> lo_;      ///< SoA, size() x arity()
  std::vector<std::size_t> hi_;      ///< SoA, size() x arity()
  std::vector<std::size_t> lo_sum_;  ///< per box: sum of lower bounds
};

}  // namespace lcert
