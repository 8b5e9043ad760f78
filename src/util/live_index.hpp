// Order-statistics index over the live slots of a slot array (DESIGN.md §13).
//
// A store whose entries never move keeps a hole (a tombstone) where an entry
// was removed, while its callers keep addressing entries by dense index: the
// i-th live slot is index i. LiveIndex translates between the two in
// O(log n) with a Fenwick tree over one 0/1 liveness count per slot. While
// no slot is dead the translation is the identity and costs nothing.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

namespace lcert {

class LiveIndex {
 public:
  /// `slots` slots, all live.
  void reset(std::size_t slots) {
    tree_.resize(slots + 1);
    for (std::size_t j = 1; j <= slots; ++j) tree_[j] = static_cast<std::uint32_t>(j & -j);
    live_ = slots;
  }

  std::size_t slots() const noexcept { return tree_.empty() ? 0 : tree_.size() - 1; }
  std::size_t live() const noexcept { return live_; }

  /// Adds one live slot at the end. O(log n).
  void append() {
    const std::size_t j = tree_.size();  // 1-based position of the new slot
    tree_.push_back(static_cast<std::uint32_t>(1 + prefix(j - 1) - prefix(j - (j & -j))));
    ++live_;
  }

  /// Marks live slot `s` dead. O(log n).
  void kill(std::size_t s) {
    for (std::size_t j = s + 1; j < tree_.size(); j += j & -j) --tree_[j];
    --live_;
  }

  /// Live slots before slot `s`: the dense index of live slot `s`.
  std::size_t rank(std::size_t s) const {
    return live_ == slots() ? s : prefix(s);
  }

  /// Slot of dense index `i` (i < live()): the (i+1)-th live slot.
  std::size_t select(std::size_t i) const {
    if (i >= live_) throw std::out_of_range("LiveIndex::select: index out of range");
    if (live_ == slots()) return i;
    std::size_t pos = 0;
    std::size_t rest = i + 1;
    std::size_t step = 1;
    while (step * 2 < tree_.size()) step *= 2;
    for (; step > 0; step /= 2)
      if (pos + step < tree_.size() && tree_[pos + step] < rest) {
        pos += step;
        rest -= tree_[pos];
      }
    return pos;  // 1-based pos + 1 is the slot; 0-based that is pos
  }

 private:
  /// Live count of slots [0, j).
  std::size_t prefix(std::size_t j) const {
    std::size_t sum = 0;
    for (; j > 0; j -= j & -j) sum += tree_[j];
    return sum;
  }

  std::vector<std::uint32_t> tree_{0};  ///< 1-based Fenwick counts; [0] unused
  std::size_t live_ = 0;
};

}  // namespace lcert
