// Allocation-free sets for per-edit bookkeeping (DESIGN.md §13).
//
// EpochMarks is a set of small integers (slots) that clears in O(1): a slot
// is marked iff its stamp equals the current pass. A caller that marks a
// handful of slots per pass touches only those, never the whole array.
//
// FlatKeySet is an open-addressing hash set of nonzero 64-bit keys: one flat
// table (linear probing, backward-shift deletion, load at most 3/4), so
// membership costs O(1) expected and no heap node per key. 0 is the empty
// marker, which suits vertex IDs (they are >= 1).
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace lcert {

class EpochMarks {
 public:
  /// Starts a pass over slots [0, size) with every slot unmarked.
  void begin(std::size_t size) {
    if (stamp_.size() < size) stamp_.resize(size, 0);
    if (++epoch_ == 0) {  // the stamps wrapped: clear them once
      std::fill(stamp_.begin(), stamp_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Marks `s`; true iff it was unmarked in this pass.
  bool mark(std::size_t s) {
    if (stamp_[s] == epoch_) return false;
    stamp_[s] = epoch_;
    return true;
  }

  bool marked(std::size_t s) const { return stamp_[s] == epoch_; }

 private:
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
};

class FlatKeySet {
 public:
  void clear() {
    table_.assign(table_.size(), 0);
    size_ = 0;
  }

  std::size_t size() const noexcept { return size_; }

  bool contains(std::uint64_t key) const {
    if (table_.empty()) return false;
    for (std::size_t i = home(key);; i = (i + 1) & mask()) {
      if (table_[i] == key) return true;
      if (table_[i] == 0) return false;
    }
  }

  /// Inserts a nonzero key; false if it was already present.
  bool insert(std::uint64_t key) {
    if (4 * (size_ + 1) > 3 * table_.size()) grow();
    std::size_t i = home(key);
    for (; table_[i] != 0; i = (i + 1) & mask())
      if (table_[i] == key) return false;
    table_[i] = key;
    ++size_;
    return true;
  }

  /// Removes `key`; false if it was absent.
  bool erase(std::uint64_t key) {
    if (table_.empty()) return false;
    std::size_t i = home(key);
    for (; table_[i] != key; i = (i + 1) & mask())
      if (table_[i] == 0) return false;
    // Backward shift: pull later keys of the probe run into the hole unless
    // that would move one before its home slot.
    for (std::size_t j = (i + 1) & mask(); table_[j] != 0; j = (j + 1) & mask()) {
      const std::size_t h = home(table_[j]);
      if (((j - h) & mask()) >= ((j - i) & mask())) {
        table_[i] = table_[j];
        i = j;
      }
    }
    table_[i] = 0;
    --size_;
    return true;
  }

 private:
  std::size_t mask() const noexcept { return table_.size() - 1; }

  std::size_t home(std::uint64_t key) const noexcept {
    // splitmix64 finalizer: sequential and random IDs spread alike.
    key ^= key >> 30;
    key *= 0xbf58476d1ce4e5b9ULL;
    key ^= key >> 27;
    key *= 0x94d049bb133111ebULL;
    key ^= key >> 31;
    return static_cast<std::size_t>(key) & mask();
  }

  void grow() {
    std::vector<std::uint64_t> old = std::move(table_);
    table_.assign(std::max<std::size_t>(16, 2 * old.size()), 0);
    size_ = 0;
    for (std::uint64_t key : old)
      if (key != 0) insert(key);
  }

  std::vector<std::uint64_t> table_;  ///< power-of-two size; 0 = empty
  std::size_t size_ = 0;
};

}  // namespace lcert
