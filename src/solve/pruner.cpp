#include "src/solve/pruner.hpp"

#include <algorithm>
#include <bit>

namespace lcert::solve {

void BoxPruner::begin(std::span<const std::uint64_t> child_masks,
                      std::size_t state_count,
                      std::span<const std::size_t> raw_supply) {
  masks_ = child_masks;
  raw_supply_ = raw_supply;
  state_count_ = state_count;
}

Verdict BoxPruner::prune(const IntervalBox& box) {
  const std::size_t m = masks_.size();
  const std::size_t k = state_count_;

  // Pristine pre-checks first, so their rejections resolve here. The raw-
  // supply reject is exact (raw supply >= effective supply, so it is a
  // subset of the effective-supply rejections below) but needs no per-box
  // mask scan — BoxIndex::may_be_feasible checks the same condition.
  lo_sum_ = 0;
  for (std::size_t q = 0; q < k; ++q) {
    if (box.hi[q] != IntervalBox::kUnbounded && box.lo[q] > box.hi[q])
      return Verdict::kInfeasible;
    if (box.lo[q] > raw_supply_[q]) return Verdict::kInfeasible;
    lo_sum_ += box.lo[q];
  }
  if (lo_sum_ > m) return Verdict::kInfeasible;
  if (m == 0) return Verdict::kFeasible;  // lo_sum == 0 and nothing to place

  // cap_[q]: the ceiling the flow network would use (m when unbounded). After
  // the pre-checks, cap_[q] >= lo[q] always: a finite hi >= lo caps at
  // min(hi, m) with lo <= lo_sum <= m.
  cap_.assign(k, 0);
  std::uint64_t usable = 0;  // states some child could take (cap > 0)
  slack_ = 0;                // states whose cap never binds (cap == m)
  for (std::size_t q = 0; q < k; ++q) {
    cap_[q] = box.hi[q] == IntervalBox::kUnbounded
                  ? static_cast<std::int64_t>(m)
                  : static_cast<std::int64_t>(std::min(box.hi[q], m));
    if (cap_[q] > 0) usable |= std::uint64_t{1} << q;
    if (cap_[q] >= static_cast<std::int64_t>(m)) slack_ |= std::uint64_t{1} << q;
  }

  // Effective per-child masks; a child with no usable state sinks the box.
  supply_.assign(k, 0);
  eff_.resize(m);
  union_eff_ = 0;
  confined_ = 0;  // children whose every usable state has cap < m
  for (std::size_t i = 0; i < m; ++i) {
    const std::uint64_t e = masks_[i] & usable;
    if (e == 0) return Verdict::kInfeasible;
    eff_[i] = e;
    union_eff_ |= e;
    if ((e & slack_) == 0) ++confined_;
    for (std::uint64_t rest = e; rest != 0; rest &= rest - 1)
      ++supply_[static_cast<std::size_t>(std::countr_zero(rest))];
  }

  // Per-state demand needs that many distinct children able to supply it.
  for (std::size_t q = 0; q < k; ++q)
    if (supply_[q] < box.lo[q]) return Verdict::kInfeasible;

  // Hall cut on the capped side: every confined child consumes one unit of
  // finitely-capped capacity.
  if (confined_ > 0) {
    std::int64_t cap_finite = 0;
    for (std::uint64_t rest = union_eff_ & ~slack_; rest != 0; rest &= rest - 1)
      cap_finite += cap_[static_cast<std::size_t>(std::countr_zero(rest))];
    if (static_cast<std::int64_t>(confined_) > cap_finite) return Verdict::kInfeasible;
  }

  // No lower bounds and every child can park on a never-binding state.
  if (lo_sum_ == 0 && confined_ == 0) return Verdict::kFeasible;

  return Verdict::kInconclusive;
}

Verdict BoxPruner::combinatorial(const IntervalBox& box) {
  const std::size_t m = masks_.size();
  const std::size_t k = state_count_;

  // Exact subset-Hall when no cap binds (every reachable state takes all m
  // children): feasibility reduces to Hall's condition over the demanded
  // states D = {q : lo[q] > 0}. Expand lo[q] into lo[q] demand slots; a
  // saturating matching exists iff for every T subseteq D,
  //   lo(T) <= #{children i : eff_i meets T} = m - #{i : eff_i cap T empty}.
  // Surplus children always place (eff nonempty, caps never bind), so the
  // condition is necessary AND sufficient — both answers are conclusive.
  std::size_t demand_states[64];
  std::size_t dk = 0;
  for (std::size_t q = 0; q < k; ++q)
    if (box.lo[q] > 0) demand_states[dk++] = q;
  if ((union_eff_ & ~slack_) == 0 && dk <= 8) {
    const std::size_t subsets = std::size_t{1} << dk;
    hall_count_.assign(subsets, 0);
    for (std::size_t i = 0; i < m; ++i) {
      std::size_t pattern = 0;
      for (std::size_t j = 0; j < dk; ++j)
        pattern |= ((eff_[i] >> demand_states[j]) & 1u) << j;
      ++hall_count_[pattern];
    }
    // Zeta transform: hall_count_[S] = #children whose demand-pattern is in S.
    for (std::size_t j = 0; j < dk; ++j)
      for (std::size_t s = 0; s < subsets; ++s)
        if (s >> j & 1u) hall_count_[s] += hall_count_[s ^ (std::size_t{1} << j)];
    // greedy_count_[T] = sum of lower bounds over the states in T.
    greedy_count_.assign(subsets, 0);
    for (std::size_t s = 1; s < subsets; ++s) {
      const std::size_t j = static_cast<std::size_t>(std::countr_zero(s));
      greedy_count_[s] =
          greedy_count_[s ^ (std::size_t{1} << j)] + box.lo[demand_states[j]];
    }
    for (std::size_t s = 0; s < subsets; ++s)
      if (greedy_count_[s] + hall_count_[(subsets - 1) ^ s] > m)
        return Verdict::kInfeasible;
    return Verdict::kFeasible;
  }

  // Mixed case (binding caps and lower bounds): build a witness greedily,
  // most-constrained children first. Only a completed witness is conclusive —
  // greedy failure says nothing, so the caller falls through to its exact
  // decision procedure.
  order_.resize(m);
  for (std::size_t i = 0; i < m; ++i) order_[i] = i;
  std::sort(order_.begin(), order_.end(), [this](std::size_t x, std::size_t y) {
    const int px = std::popcount(eff_[x]);
    const int py = std::popcount(eff_[y]);
    return px != py ? px < py : x < y;
  });
  // Satisfy lower bounds first, tightest supply slack first. cap_ doubles as
  // remaining capacity from here on; eff_[i] == 0 marks an assigned child.
  std::pair<std::size_t, std::size_t> demand_order[64];  // (slack, state)
  for (std::size_t j = 0; j < dk; ++j)
    demand_order[j] = {supply_[demand_states[j]] - box.lo[demand_states[j]],
                       demand_states[j]};
  std::sort(demand_order, demand_order + dk);
  for (std::size_t j = 0; j < dk; ++j) {
    const std::size_t q = demand_order[j].second;
    std::size_t need = box.lo[q];
    for (std::size_t idx = 0; idx < m && need > 0; ++idx) {
      const std::size_t i = order_[idx];
      if ((eff_[i] >> q & 1u) == 0 || eff_[i] == 0) continue;
      eff_[i] = 0;
      --cap_[q];
      --need;
    }
    if (need > 0) return Verdict::kInconclusive;
  }
  // Park the rest on whichever usable state has the most room left.
  for (std::size_t idx = 0; idx < m; ++idx) {
    const std::size_t i = order_[idx];
    if (eff_[i] == 0) continue;
    std::size_t best = SIZE_MAX;
    std::int64_t best_room = 0;
    for (std::uint64_t rest = eff_[i]; rest != 0; rest &= rest - 1) {
      const std::size_t q = static_cast<std::size_t>(std::countr_zero(rest));
      if (cap_[q] > best_room) {
        best = q;
        best_room = cap_[q];
      }
    }
    if (best == SIZE_MAX) return Verdict::kInconclusive;
    eff_[i] = 0;
    --cap_[best];
  }
  return Verdict::kFeasible;
}

}  // namespace lcert::solve
