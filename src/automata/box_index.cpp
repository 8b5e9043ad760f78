#include "src/automata/box_index.hpp"

#include <stdexcept>
#include <utility>

namespace lcert {

BoxIndex::BoxIndex(std::vector<IntervalBox> boxes) : boxes_(std::move(boxes)) {
  if (boxes_.empty()) return;
  arity_ = boxes_.front().lo.size();
  lo_.reserve(boxes_.size() * arity_);
  hi_.reserve(boxes_.size() * arity_);
  lo_sum_.reserve(boxes_.size());
  for (const IntervalBox& b : boxes_) {
    if (b.lo.size() != arity_ || b.hi.size() != arity_)
      throw std::invalid_argument("BoxIndex: mixed arity");
    std::size_t sum = 0;
    for (std::size_t q = 0; q < arity_; ++q) {
      lo_.push_back(b.lo[q]);
      hi_.push_back(b.hi[q]);
      sum += b.lo[q];
    }
    lo_sum_.push_back(sum);
  }
}

BoxIndex::Hit BoxIndex::first_containing(const std::size_t* counts,
                                         std::size_t count_len) const {
  Hit hit;
  if (boxes_.empty()) return hit;
  if (count_len != arity_)
    throw std::invalid_argument("BoxIndex::first_containing: wrong arity");
  for (std::size_t i = 0; i < boxes_.size(); ++i) {
    ++hit.probes;
    const std::size_t* lo = lo_.data() + i * arity_;
    const std::size_t* hi = hi_.data() + i * arity_;
    bool inside = true;
    for (std::size_t q = 0; q < arity_ && inside; ++q)
      inside = counts[q] >= lo[q] &&
               (hi[q] == IntervalBox::kUnbounded || counts[q] <= hi[q]);
    if (inside) {
      hit.index = i;
      return hit;
    }
  }
  return hit;
}

}  // namespace lcert
