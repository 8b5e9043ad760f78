#include "src/schemes/mso_tree_detail.hpp"

#include <algorithm>
#include <stdexcept>

namespace lcert::mso_detail {

std::uint64_t SolveCore::mask_from_children(
    const std::vector<std::uint64_t>& child_masks, ProverContext& ctx) const {
  solve::FeasibilitySolver& feas = ctx.feasibility();
  feas.begin(child_masks, k);
  std::uint64_t m = 0;
  for (std::size_t q = 0; q < k; ++q)
    if (feas.decide_first(boxes[q]) != BoxIndex::npos) m |= std::uint64_t{1} << q;
  return m;
}

std::vector<std::size_t> SolveCore::extract_from_children(
    const std::vector<std::uint64_t>& child_masks, std::size_t q,
    ProverContext& ctx) const {
  solve::FeasibilitySolver& feas = ctx.feasibility();
  feas.begin(child_masks, k);
  std::vector<std::size_t> assignment;
  // The solver backend only pre-filters boxes (exact, so decide_first lands
  // on precisely the first box the pristine sweep would accept); the
  // assignment itself always comes from uop_assign_children_masked, keeping
  // certificates bit-identical under every backend.
  const std::size_t bi = feas.decide_first(boxes[q]);
  if (bi == BoxIndex::npos)
    throw std::logic_error(scheme_name + ": extraction failed after feasibility");
  if (!uop_assign_children_masked(child_masks, boxes[q].box(bi), k, assignment))
    throw std::logic_error(scheme_name + ": solver disagrees with the pristine flow");
  return assignment;
}

namespace {

std::vector<std::uint64_t> child_masks_of(const RootedTree& t,
                                          const std::vector<std::uint64_t>& mask,
                                          std::size_t v) {
  std::vector<std::uint64_t> out;
  out.reserve(t.children(v).size());
  for (std::size_t c : t.children(v)) out.push_back(mask[c]);
  return out;
}

}  // namespace

RootSolve SolveCore::solve(const Graph& g, const std::vector<Vertex>& roots,
                           ProverContext& ctx, MsoMemo* memo) const {
  RootSolve first;
  for (std::size_t i = 0; i < roots.size(); ++i) {
    RootSolve s{RootedTree::from_graph(g, roots[i]), {}, {}};
    const auto levels = s.tree.levels();
    // Deepest level first: every child's mask is final before its parent's.
    s.mask.assign(s.tree.size(), 0);
    for (auto lev = levels.rbegin(); lev != levels.rend(); ++lev)
      for (std::size_t v : *lev) s.mask[v] = memo_mask(s.tree, s.mask, v, ctx, memo);
    const std::size_t root_state = accepting_state(s.mask[s.tree.root()]);
    if (root_state != SIZE_MAX) {
      s.run.assign(s.tree.size(), SIZE_MAX);
      s.run[s.tree.root()] = root_state;
      top_down(s.tree, levels, ctx, memo, s.mask, s.run);
      return s;
    }
    if (i == 0) first = std::move(s);
  }
  return first;
}

std::size_t SolveCore::accepting_state(std::uint64_t root_mask) const {
  for (std::size_t q = 0; q < k; ++q)
    if (automaton->accepting[q] && ((root_mask >> q) & 1u)) return q;
  return SIZE_MAX;
}

void SolveCore::top_down(const RootedTree& t,
                         const std::vector<std::vector<std::size_t>>& levels,
                         ProverContext& ctx, MsoMemo* memo,
                         const std::vector<std::uint64_t>& mask,
                         std::vector<std::size_t>& run) const {
  // Root level first: run[v] is final before v's level chooses its
  // children's states.
  std::vector<std::size_t> scratch;
  for (const std::vector<std::size_t>& level : levels)
    for (std::size_t v : level) {
      const auto kids = t.children(v);
      if (kids.empty()) continue;
      const std::vector<std::size_t>& chosen =
          memo_extract(t, mask, v, run[v], ctx, memo, scratch);
      for (std::size_t j = 0; j < kids.size(); ++j) run[kids[j]] = chosen[j];
    }
}

std::vector<Certificate> SolveCore::payload_table(ProverContext& ctx) const {
  std::vector<Certificate> table(3 * k);
  for (std::size_t d = 0; d < 3; ++d)
    for (std::size_t q = 0; q < k; ++q) {
      BitWriter& w = ctx.writer(0);
      w.write(d, 2);
      w.write(q, width);
      table[d * k + q] = Certificate::from_writer(std::move(w));
    }
  return table;
}

std::uint64_t SolveCore::memo_mask(const RootedTree& t,
                                   const std::vector<std::uint64_t>& mask,
                                   std::size_t v, ProverContext& ctx,
                                   MsoMemo* memo) const {
  if (memo == nullptr) return mask_from_children(child_masks_of(t, mask, v), ctx);
  std::vector<std::size_t>& key = memo->key;
  key.clear();
  for (std::size_t c : t.children(v))
    key.push_back(static_cast<std::size_t>(mask[c]));
  std::sort(key.begin(), key.end());
  const std::size_t code = memo->mask_multisets.intern(key);
  if (code < memo->feas_known.size() && memo->feas_known[code]) {
    ctx.count_memo_hits(1);
    return memo->feas_memo[code];
  }
  memo->feas_known.resize(memo->mask_multisets.size(), 0);
  memo->feas_memo.resize(memo->mask_multisets.size(), 0);
  ctx.count_memo_misses(1);
  const std::uint64_t m = mask_from_children(child_masks_of(t, mask, v), ctx);
  memo->feas_known[code] = 1;
  memo->feas_memo[code] = m;
  return m;
}

const std::vector<std::size_t>& SolveCore::memo_extract(
    const RootedTree& t, const std::vector<std::uint64_t>& mask, std::size_t v,
    std::size_t q, ProverContext& ctx, MsoMemo* memo,
    std::vector<std::size_t>& scratch) const {
  if (memo == nullptr) {
    scratch = extract_from_children(child_masks_of(t, mask, v), q, ctx);
    return scratch;
  }
  std::vector<std::size_t>& key = memo->key;
  key.clear();
  for (std::size_t c : t.children(v))
    key.push_back(static_cast<std::size_t>(mask[c]));
  const std::uint64_t mkey =
      static_cast<std::uint64_t>(memo->mask_tuples.intern(key)) * 64 + q;
  const auto [it, inserted] = memo->extract_memo.try_emplace(mkey);
  if (!inserted) {
    ctx.count_memo_hits(1);
    return it->second;
  }
  ctx.count_memo_misses(1);
  it->second = extract_from_children(child_masks_of(t, mask, v), q, ctx);
  return it->second;
}

}  // namespace lcert::mso_detail
