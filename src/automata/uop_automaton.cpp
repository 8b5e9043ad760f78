#include "src/automata/uop_automaton.hpp"

#include <algorithm>
#include <bit>
#include <limits>
#include <stdexcept>

#include "src/solve/solver.hpp"
#include "src/util/flow.hpp"

namespace lcert {

const UnaryConstraint& UOPAutomaton::transition(std::size_t state, std::size_t label) const {
  if (state >= state_count || label >= label_count)
    throw std::out_of_range("UOPAutomaton::transition: out of range");
  return delta.at(state * label_count + label);
}

void UOPAutomaton::validate() const {
  if (state_count == 0) throw std::invalid_argument("UOPAutomaton: no states");
  if (state_names.size() != state_count || accepting.size() != state_count ||
      delta.size() != state_count * label_count)
    throw std::invalid_argument("UOPAutomaton: inconsistent sizes");
}

std::size_t AutomatonBuilder::add_state(std::string name, bool accepting) {
  names_.push_back(std::move(name));
  accepting_.push_back(accepting);
  for (std::size_t l = 0; l < label_count_; ++l) delta_.emplace_back(std::nullopt);
  return names_.size() - 1;
}

void AutomatonBuilder::set_transition(std::size_t state, UnaryConstraint c, std::size_t label) {
  delta_.at(state * label_count_ + label) = std::move(c);
}

UOPAutomaton AutomatonBuilder::build() const {
  UOPAutomaton a;
  a.state_count = names_.size();
  a.label_count = label_count_;
  a.state_names = names_;
  a.accepting = accepting_;
  a.delta.reserve(delta_.size());
  for (const auto& d : delta_)
    a.delta.push_back(d.value_or(UnaryConstraint::always_false()));
  a.validate();
  return a;
}

namespace {

std::size_t label_of(const std::vector<std::size_t>* labels, std::size_t v) {
  return labels == nullptr ? 0 : labels->at(v);
}

}  // namespace

bool is_accepting_run(const UOPAutomaton& a, const RootedTree& t, const Run& run,
                      const std::vector<std::size_t>* labels) {
  a.validate();
  if (run.size() != t.size()) return false;
  for (std::size_t v = 0; v < t.size(); ++v) {
    if (run[v] >= a.state_count) return false;
    std::vector<std::size_t> counts(a.state_count, 0);
    for (std::size_t c : t.children(v)) ++counts[run[c]];
    if (!a.transition(run[v], label_of(labels, v)).eval(counts)) return false;
  }
  return a.accepting[run[t.root()]];
}

namespace {

// Can the children (with the given feasible sets) realize counts inside
// `box`? If yes, writes the chosen state of each child into `assignment`.
bool assign_children(const std::vector<std::size_t>& children,
                     const std::vector<std::vector<bool>>& feasible,
                     const IntervalBox& box, std::size_t state_count,
                     std::vector<std::size_t>& assignment) {
  const std::size_t m = children.size();
  // Quick necessary check: sum of lower bounds must not exceed m.
  std::size_t lo_sum = 0;
  for (std::size_t q = 0; q < state_count; ++q) {
    if (box.hi[q] != IntervalBox::kUnbounded && box.lo[q] > box.hi[q]) return false;
    lo_sum += box.lo[q];
  }
  if (lo_sum > m) return false;

  BoundedFlowProblem problem;
  const std::size_t source = problem.add_node();
  const std::size_t sink = problem.add_node();
  std::vector<std::size_t> child_nodes(m);
  for (std::size_t i = 0; i < m; ++i) {
    child_nodes[i] = problem.add_node();
    problem.add_edge(source, child_nodes[i], 1, 1);
  }
  std::vector<std::size_t> state_nodes(state_count, SIZE_MAX);
  std::vector<std::pair<std::size_t, std::pair<std::size_t, std::size_t>>> choice_edges;
  for (std::size_t q = 0; q < state_count; ++q) {
    state_nodes[q] = problem.add_node();
    const std::int64_t hi =
        box.hi[q] == IntervalBox::kUnbounded ? static_cast<std::int64_t>(m)
                                             : static_cast<std::int64_t>(std::min(box.hi[q], m));
    problem.add_edge(state_nodes[q], sink, static_cast<std::int64_t>(box.lo[q]), hi);
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t q = 0; q < state_count; ++q) {
      if (!feasible[children[i]][q]) continue;
      const std::size_t e = problem.add_edge(child_nodes[i], state_nodes[q], 0, 1);
      choice_edges.push_back({e, {i, q}});
    }
  }
  problem.source = source;
  problem.sink = sink;

  std::vector<std::int64_t> flow;
  if (!problem.feasible(flow)) return false;

  assignment.assign(m, SIZE_MAX);
  for (const auto& [e, iq] : choice_edges)
    if (flow[e] == 1) assignment[iq.first] = iq.second;
  for (std::size_t i = 0; i < m; ++i)
    if (assignment[i] == SIZE_MAX)
      throw std::logic_error("assign_children: flow left a child unassigned");
  return true;
}

}  // namespace

bool uop_assign_children_masked(std::span<const std::uint64_t> child_masks,
                                const IntervalBox& box, std::size_t state_count,
                                std::vector<std::size_t>& assignment) {
  // Mirrors assign_children above line for line — same quick check, same
  // node/edge insertion order — with feasible[child][q] replaced by a mask
  // bit test. The flow solver's choice depends on that order, and the
  // memoized prover relies on both paths choosing identically.
  const std::size_t m = child_masks.size();
  std::size_t lo_sum = 0;
  for (std::size_t q = 0; q < state_count; ++q) {
    if (box.hi[q] != IntervalBox::kUnbounded && box.lo[q] > box.hi[q]) return false;
    lo_sum += box.lo[q];
  }
  if (lo_sum > m) return false;

  BoundedFlowProblem problem;
  const std::size_t source = problem.add_node();
  const std::size_t sink = problem.add_node();
  std::vector<std::size_t> child_nodes(m);
  for (std::size_t i = 0; i < m; ++i) {
    child_nodes[i] = problem.add_node();
    problem.add_edge(source, child_nodes[i], 1, 1);
  }
  std::vector<std::size_t> state_nodes(state_count, SIZE_MAX);
  std::vector<std::pair<std::size_t, std::pair<std::size_t, std::size_t>>> choice_edges;
  for (std::size_t q = 0; q < state_count; ++q) {
    state_nodes[q] = problem.add_node();
    const std::int64_t hi =
        box.hi[q] == IntervalBox::kUnbounded ? static_cast<std::int64_t>(m)
                                             : static_cast<std::int64_t>(std::min(box.hi[q], m));
    problem.add_edge(state_nodes[q], sink, static_cast<std::int64_t>(box.lo[q]), hi);
  }
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t q = 0; q < state_count; ++q) {
      if ((child_masks[i] >> q & 1u) == 0) continue;
      const std::size_t e = problem.add_edge(child_nodes[i], state_nodes[q], 0, 1);
      choice_edges.push_back({e, {i, q}});
    }
  }
  problem.source = source;
  problem.sink = sink;

  std::vector<std::int64_t> flow;
  if (!problem.feasible(flow)) return false;

  assignment.assign(m, SIZE_MAX);
  for (const auto& [e, iq] : choice_edges)
    if (flow[e] == 1) assignment[iq.first] = iq.second;
  for (std::size_t i = 0; i < m; ++i)
    if (assignment[i] == SIZE_MAX)
      throw std::logic_error("uop_assign_children_masked: flow left a child unassigned");
  return true;
}

std::optional<Run> find_accepting_run(const UOPAutomaton& a, const RootedTree& t,
                                      const std::vector<std::size_t>* labels) {
  // The canonical boxes per (state, label) — the same compilation
  // MsoTreeScheme holds, so the "first feasible box" both paths land on is
  // the same box.
  std::vector<BoxIndex> boxes;
  boxes.reserve(a.state_count * a.label_count);
  for (std::size_t q = 0; q < a.state_count; ++q)
    for (std::size_t l = 0; l < a.label_count; ++l)
      boxes.emplace_back(a.transition(q, l).to_boxes(a.state_count));
  return find_accepting_run(a, t, boxes, labels);
}

std::optional<Run> find_accepting_run(const UOPAutomaton& a, const RootedTree& t,
                                      std::span<const BoxIndex> boxes,
                                      const std::vector<std::size_t>* labels) {
  a.validate();
  if (labels != nullptr && labels->size() != t.size())
    throw std::invalid_argument("find_accepting_run: labels size mismatch");
  if (boxes.size() != a.state_count * a.label_count)
    throw std::invalid_argument("find_accepting_run: one box list per (state, label)");
  for (const BoxIndex& idx : boxes)
    if (idx.size() != 0 && idx.arity() != a.state_count)
      throw std::invalid_argument("find_accepting_run: box arity differs from the state count");

  const auto order = t.preorder();

  if (a.state_count <= 64) {
    // Mask fast path: feasibility decisions through the default solver
    // backend (exact booleans), assignments through the pristine masked
    // solver — so the run produced is bit-identical to the vector<bool>
    // reference path below.
    const std::size_t k = a.state_count;
    std::vector<std::uint64_t> feasible(t.size(), 0);
    std::vector<std::uint64_t> child_masks;
    const auto feas = solve::SolverFactory::make(solve::kDefaultBackend);

    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::size_t v = *it;
      child_masks.clear();
      for (std::size_t c : t.children(v)) child_masks.push_back(feasible[c]);
      feas->begin(child_masks, k);
      for (std::size_t q = 0; q < k; ++q)
        if (feas->decide_first(boxes[q * a.label_count + label_of(labels, v)]) !=
            BoxIndex::npos)
          feasible[v] |= std::uint64_t{1} << q;
    }

    std::size_t root_state = SIZE_MAX;
    for (std::size_t q = 0; q < k; ++q)
      if (a.accepting[q] && (feasible[t.root()] >> q & 1u)) {
        root_state = q;
        break;
      }
    if (root_state == SIZE_MAX) return std::nullopt;

    Run run(t.size(), SIZE_MAX);
    run[t.root()] = root_state;
    std::vector<std::size_t> assignment;
    for (std::size_t v : order) {
      const std::size_t q = run[v];
      const auto children_span = t.children(v);
      if (children_span.empty()) continue;
      child_masks.clear();
      for (std::size_t c : children_span) child_masks.push_back(feasible[c]);
      feas->begin(child_masks, k);
      const BoxIndex& idx = boxes[q * a.label_count + label_of(labels, v)];
      // decide_first is exact: it skips only boxes the full sweep would
      // reject, so this is the same first box as a plain decide() sweep.
      const std::size_t bi = feas->decide_first(idx);
      if (bi == BoxIndex::npos)
        throw std::logic_error("find_accepting_run: extraction failed");
      if (!uop_assign_children_masked(child_masks, idx.box(bi), k, assignment))
        throw std::logic_error("find_accepting_run: solver/flow disagreement");
      for (std::size_t i = 0; i < children_span.size(); ++i)
        run[children_span[i]] = assignment[i];
    }

    if (!is_accepting_run(a, t, run, labels))
      throw std::logic_error("find_accepting_run: produced a non-accepting run");
    return run;
  }

  // Reference path for automata too wide for 64-bit masks. The sweep skips
  // only boxes whose necessary conditions (lo <= supply, lo-sum <= child
  // count) fail — assign_children rejects those too, so the first box it
  // accepts is the first box overall.
  std::vector<std::vector<bool>> feasible(t.size(),
                                          std::vector<bool>(a.state_count, false));
  std::vector<std::size_t> supply(a.state_count);
  const auto compute_supply = [&](const std::vector<std::size_t>& children) {
    std::fill(supply.begin(), supply.end(), 0);
    for (const std::size_t c : children)
      for (std::size_t q = 0; q < a.state_count; ++q)
        supply[q] += feasible[c][q] ? 1 : 0;
  };
  std::vector<std::size_t> scratch_assignment;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const std::size_t v = *it;
    const auto children_span = t.children(v);
    const std::vector<std::size_t> children(children_span.begin(), children_span.end());
    compute_supply(children);
    for (std::size_t q = 0; q < a.state_count; ++q) {
      const BoxIndex& idx = boxes[q * a.label_count + label_of(labels, v)];
      for (std::size_t bi = 0; bi < idx.size(); ++bi) {
        if (!idx.may_be_feasible(bi, supply.data(), children.size())) continue;
        if (assign_children(children, feasible, idx.box(bi), a.state_count,
                            scratch_assignment)) {
          feasible[v][q] = true;
          break;
        }
      }
    }
  }

  // Pick an accepting feasible root state.
  std::size_t root_state = SIZE_MAX;
  for (std::size_t q = 0; q < a.state_count; ++q)
    if (a.accepting[q] && feasible[t.root()][q]) {
      root_state = q;
      break;
    }
  if (root_state == SIZE_MAX) return std::nullopt;

  // Top-down extraction.
  Run run(t.size(), SIZE_MAX);
  run[t.root()] = root_state;
  for (std::size_t v : order) {
    const std::size_t q = run[v];
    const auto children_span = t.children(v);
    if (children_span.empty()) continue;
    const std::vector<std::size_t> children(children_span.begin(), children_span.end());
    compute_supply(children);
    bool placed = false;
    const BoxIndex& idx = boxes[q * a.label_count + label_of(labels, v)];
    for (std::size_t bi = 0; bi < idx.size(); ++bi) {
      if (!idx.may_be_feasible(bi, supply.data(), children.size())) continue;
      std::vector<std::size_t> assignment;
      if (assign_children(children, feasible, idx.box(bi), a.state_count, assignment)) {
        for (std::size_t i = 0; i < children.size(); ++i) run[children[i]] = assignment[i];
        placed = true;
        break;
      }
    }
    if (!placed) throw std::logic_error("find_accepting_run: extraction failed");
  }

  if (!is_accepting_run(a, t, run, labels))
    throw std::logic_error("find_accepting_run: produced a non-accepting run");
  return run;
}

}  // namespace lcert
