#include "src/schemes/mso_tree.hpp"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <stdexcept>

#include "src/cert/prove.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/schemes/mso_tree_detail.hpp"
#include "src/util/bitio.hpp"

namespace lcert {

MsoTreeScheme::MsoTreeScheme(NamedAutomaton automaton)
    : automaton_(std::move(automaton)),
      state_bits_(bits_for(automaton_.automaton.state_count - 1)),
      box_probes_(obs::registry().counter("verify/box_probes")) {
  automaton_.automaton.validate();
  const std::size_t k = automaton_.automaton.state_count;
  transition_index_.reserve(k);
  raw_boxes_per_state_.reserve(k);
  std::size_t raw_max = 0;
  for (std::size_t q = 0; q < k; ++q) {
    // Expand the raw DNF once (for the gauge/attribution) and canonicalize.
    // The leaves>=4 cliff — ~29k raw boxes in one state — pays its expansion
    // cost here, once per scheme, and collapses to a handful of canonical
    // boxes every consumer then shares.
    std::vector<IntervalBox> raw = automaton_.automaton.transition(q).to_boxes_raw(k);
    raw_boxes_per_state_.push_back(raw.size());
    raw_max = std::max(raw_max, raw.size());
    transition_index_.emplace_back(canonicalize_boxes(std::move(raw)));
  }
  // Registration-time gauges (unconditional: visible in every snapshot, not
  // just enabled runs) exposing the DNF cliff and its fix — raw ~29k for
  // leaves>=4 against 1-3 everywhere else, canonical a handful.
  obs::registry().gauge_set_always(
      obs::registry().gauge("verify/" + name() + "/boxes_per_state_raw"),
      static_cast<std::int64_t>(raw_max));
  obs::registry().gauge_set_always(
      obs::registry().gauge("verify/" + name() + "/boxes_per_state_canonical"),
      static_cast<std::int64_t>(max_boxes_per_state()));
}

std::size_t MsoTreeScheme::max_boxes_per_state() const noexcept {
  std::size_t max_boxes = 0;
  for (const auto& index : transition_index_)
    max_boxes = std::max(max_boxes, index.size());
  return max_boxes;
}

bool MsoTreeScheme::holds(const Graph& g) const {
  if (g.edge_count() != g.vertex_count() - 1 || !g.is_connected())
    throw std::invalid_argument(name() + ": instance outside the tree promise");
  return automaton_.oracle(g);
}

std::optional<std::vector<Certificate>> MsoTreeScheme::assign(const Graph& g) const {
  if (!holds(g)) return std::nullopt;
  for (Vertex root : automaton_.good_roots(g)) {
    const RootedTree t = RootedTree::from_graph(g, root);
    const auto run = find_accepting_run(automaton_.automaton, t, transition_index_);
    if (!run.has_value()) continue;
    std::vector<Certificate> certs(g.vertex_count());
    for (Vertex v = 0; v < g.vertex_count(); ++v) {
      BitWriter w;
      w.write(t.depth(v) % 3, 2);
      w.write((*run)[v], state_bits_ == 0 ? 1 : state_bits_);
      certs[v] = Certificate::from_writer(std::move(w));
    }
    return certs;
  }
  return std::nullopt;  // no good root admitted a run: library bug, caught by tests
}

std::optional<RunForgerySurface> MsoTreeScheme::run_forgery_surface() const {
  RunForgerySurface surface;
  surface.automaton = &automaton_.automaton;
  surface.boxes = transition_index_;
  // Mirrors assign()'s encoding exactly: 2 bits of depth mod 3, then the
  // state in state_bits_ (floor of 1) bits.
  const unsigned width = state_bits_ == 0 ? 1 : state_bits_;
  surface.encode = [width](std::size_t depth_mod3, std::size_t state) {
    BitWriter w;
    w.write(depth_mod3, 2);
    w.write(state, width);
    return Certificate::from_writer(std::move(w));
  };
  return surface;
}

mso_detail::SolveCore MsoTreeScheme::solve_core() const {
  return {&automaton_.automaton, transition_index_.data(),
          automaton_.automaton.state_count, state_bits_ == 0 ? 1 : state_bits_,
          name()};
}

std::optional<std::vector<Certificate>> MsoTreeScheme::prove_batch(
    const Graph& g, ProverContext& ctx) const {
  const std::size_t k = automaton_.automaton.state_count;
  if (k > 64) return assign(g);
  if (!holds(g)) return std::nullopt;

  const mso_detail::SolveCore core = solve_core();

  // Memo state shared across candidate roots, keyed on child feasibility
  // masks instead of exact subtree iso codes (DESIGN.md §12): feasibility is
  // a pure function of the *multiset* of child masks (flow feasibility is
  // child-order invariant), extraction of the *ordered tuple* of child masks
  // plus the parent state (the flow's choice follows edge insertion order).
  // Distinct subtree shapes with the same child-mask profile share one entry
  // — on irregular trees this is the difference between a memo that
  // collapses and one that converges to O(distinct profiles). The root loop
  // and both passes live in mso_detail::SolveCore, shared verbatim with the
  // incremental recertification prover (DESIGN.md §13).
  mso_detail::MsoMemo memo_store;
  mso_detail::MsoMemo* memo = ctx.memoize() ? &memo_store : nullptr;

  const mso_detail::RootSolve s =
      core.solve(g, automaton_.good_roots(g), ctx, memo);
  if (s.run.empty()) return std::nullopt;

  const std::vector<Certificate> table = core.payload_table(ctx);
  std::vector<Certificate> certs(g.vertex_count());
  ctx.for_each_index(g.vertex_count(), [&](std::size_t, std::size_t v) {
    certs[v] = table[(s.tree.depth(v) % 3) * k + s.run[v]];
  });
  return certs;
}

namespace {

/// One vertex's check with every automaton parameter passed in, so that both
/// callers — verify() for one view, verify_batch() in a loop — compile it
/// with the parameters hoisted into registers.
inline bool verify_view(const ViewRef& view, std::size_t k, unsigned state_width,
                        const BoxIndex* transition_index,
                        const std::vector<bool>& accepting, std::size_t& probes) {
  BitReader r = view.certificate->reader();
  const std::uint64_t my_mod = r.read(2);
  const std::uint64_t my_state = r.read(state_width);
  if (my_mod > 2 || my_state >= k) return false;

  // Child-state counts live on the stack for the library's automata (all
  // small); the heap fallback keeps arbitrary state counts correct.
  constexpr std::size_t kStackStates = 32;
  std::size_t stack_counts[kStackStates];
  std::vector<std::size_t> heap_counts;
  std::size_t* child_state_counts = stack_counts;
  if (k > kStackStates) {
    heap_counts.resize(k);
    child_state_counts = heap_counts.data();
  }
  for (std::size_t q = 0; q < k; ++q) child_state_counts[q] = 0;

  // Classify each neighbor against the mod-3 counter: (nb_mod - my_mod) mod 3
  // is 2 for a parent, 1 for a child; equal counters on an edge are an
  // inconsistent orientation. Conditional increments, not branches — the
  // parent/child pattern is data-dependent and mispredicts.
  std::size_t parents = 0;
  for (const auto& nb : view.neighbors()) {
    BitReader nr = nb.certificate->reader();
    const std::uint64_t nb_mod = nr.read(2);
    const std::uint64_t nb_state = nr.read(state_width);
    if (nb_mod > 2 || nb_state >= k) return false;
    const std::uint64_t diff = (nb_mod + 3 - my_mod) % 3;
    if (diff == 0) return false;
    parents += diff == 2;
    child_state_counts[nb_state] += diff == 1;
  }
  const bool is_root = (parents == 0);
  if (parents > 1) return false;
  if (is_root && my_mod != 0) return false;

  // Automaton transition (and acceptance at the root), via a first-match
  // sweep over the canonical DNF.
  const BoxIndex::Hit hit =
      transition_index[my_state].first_containing(child_state_counts, k);
  probes += hit.probes;
  if (hit.index == BoxIndex::npos) return false;
  if (is_root && !accepting[my_state]) return false;
  return true;
}

}  // namespace

bool MsoTreeScheme::verify(const ViewRef& view) const {
  std::size_t probes = 0;
  const bool ok = verify_view(view, automaton_.automaton.state_count,
                              state_bits_ == 0 ? 1 : state_bits_,
                              transition_index_.data(),
                              automaton_.automaton.accepting, probes);
  box_probes_.add(probes);
  return ok;
}

void MsoTreeScheme::verify_batch(std::span<const ViewRef> views,
                                 std::span<std::uint8_t> accept) const {
  assert(views.size() == accept.size());
  const std::size_t count = views.size();
  const std::size_t k = automaton_.automaton.state_count;
  const unsigned state_width = state_bits_ == 0 ? 1 : state_bits_;
  const BoxIndex* index = transition_index_.data();
  const std::vector<bool>& accepting = automaton_.automaton.accepting;
  std::uint64_t batch_probes = 0;

  // Fast path when the whole certificate — mod-3 counter plus state — fits in
  // the first byte (every library automaton does): decode by shift/mask
  // straight off the byte, no BitReader and no exception paths. A too-short
  // certificate rejects, exactly as the CertificateTruncated throw would.
  if (2 + state_width <= 8 && k <= 8) {
    const unsigned total_bits = 2 + state_width;
    const std::uint8_t state_mask = static_cast<std::uint8_t>((1u << state_width) - 1);
    const unsigned state_shift = 6 - state_width;
    for (std::size_t i = 0; i < count; ++i) {
      const ViewRef& view = views[i];
      accept[i] = [&]() -> bool {
        const Certificate& mine = *view.certificate;
        if (mine.bit_size < total_bits) return false;
        const std::uint8_t b0 = mine.bytes[0];
        const std::uint64_t my_mod = b0 >> 6;
        const std::uint64_t my_state = (b0 >> state_shift) & state_mask;
        if (my_mod > 2 || my_state >= k) return false;
        // 64-byte fixed-size zeroing: small enough that the compiler emits
        // plain vector stores (a variable-count loop, and even a 256-byte
        // clear, compile to `rep stos`, whose startup cost dominates here).
        std::size_t counts[8] = {};
        // my_mod is fixed for the whole neighbor sweep: classify by equality
        // against the precomputed parent/child counters instead of re-doing
        // mod-3 arithmetic (a multiply chain) per neighbor.
        const std::uint64_t parent_mod = my_mod == 0 ? 2 : my_mod - 1;
        const std::uint64_t child_mod = my_mod == 2 ? 0 : my_mod + 1;
        std::size_t parents = 0;
        for (const auto& nb : view.neighbors()) {
          const Certificate& c = *nb.certificate;
          if (c.bit_size < total_bits) return false;
          const std::uint8_t nb0 = c.bytes[0];
          const std::uint64_t nb_mod = nb0 >> 6;
          const std::uint64_t nb_state = (nb0 >> state_shift) & state_mask;
          if (nb_mod > 2 || nb_state >= k) return false;
          if (nb_mod == my_mod) return false;  // equal counters: bad orientation
          parents += nb_mod == parent_mod;
          counts[nb_state] += nb_mod == child_mod;
        }
        if (parents > 1) return false;
        const bool is_root = (parents == 0);
        if (is_root && my_mod != 0) return false;
        const BoxIndex::Hit hit = index[my_state].first_containing(counts, k);
        batch_probes += hit.probes;
        if (hit.index == BoxIndex::npos) return false;
        return !is_root || accepting[my_state];
      }()
                      ? 1
                      : 0;
    }
    box_probes_.add(batch_probes);
    return;
  }

  for (std::size_t i = 0; i < count; ++i) {
    try {
      std::size_t probes = 0;
      accept[i] = verify_view(views[i], k, state_width, index, accepting, probes) ? 1 : 0;
      batch_probes += probes;
    } catch (const CertificateTruncated&) {
      accept[i] = 0;
      static const obs::Counter truncated =
          obs::registry().counter("engine/truncated_rejects");
      truncated.add();
    }
  }
  box_probes_.add(batch_probes);
}

std::string MsoTreeScheme::slow_batch_attribution(std::span<const ViewRef> views) const {
  const std::size_t k = automaton_.automaton.state_count;
  const unsigned state_width = state_bits_ == 0 ? 1 : state_bits_;
  std::size_t worst_state = SIZE_MAX, worst_boxes = 0, worst_hits = 0;
  for (const ViewRef& view : views) {
    if (view.certificate == nullptr ||
        view.certificate->bit_size < 2 + state_width)
      continue;
    BitReader r = view.certificate->reader();
    r.read(2);  // mod-3 counter
    const std::uint64_t state = r.read(state_width);
    if (state >= k) continue;
    const std::size_t boxes = raw_boxes_per_state_[state];
    if (boxes > worst_boxes) {
      worst_state = state;
      worst_boxes = boxes;
      worst_hits = 1;
    } else if (state == worst_state) {
      ++worst_hits;
    }
  }
  if (worst_state == SIZE_MAX) return {};

  // Measured probe cost: replay a sample of the worst state's views through
  // the indexed check. Pre-fix this was the full raw fan-out per vertex
  // (~29k for leaves>=4); post-fix it should sit at a handful.
  constexpr std::size_t kSampleCap = 256;
  std::size_t sampled = 0, probe_total = 0;
  for (const ViewRef& view : views) {
    if (sampled >= kSampleCap) break;
    if (view.certificate == nullptr ||
        view.certificate->bit_size < 2 + state_width)
      continue;
    BitReader r = view.certificate->reader();
    r.read(2);
    if (r.read(state_width) != worst_state) continue;
    std::size_t probes = 0;
    try {
      verify_view(view, k, state_width, transition_index_.data(),
                  automaton_.automaton.accepting, probes);
    } catch (const CertificateTruncated&) {
      continue;
    }
    probe_total += probes;
    ++sampled;
  }

  const auto& names = automaton_.automaton.state_names;
  const std::string state_name = worst_state < names.size() &&
                                         !names[worst_state].empty()
                                     ? names[worst_state]
                                     : "q" + std::to_string(worst_state);
  char probe_buf[32];
  std::snprintf(probe_buf, sizeof probe_buf, "%.1f",
                sampled == 0 ? 0.0
                             : static_cast<double>(probe_total) /
                                   static_cast<double>(sampled));
  return "state=" + state_name +
         " boxes=" + std::to_string(transition_index_[worst_state].size()) +
         " raw_boxes=" + std::to_string(worst_boxes) +
         " vertices=" + std::to_string(worst_hits) +
         " probes/vertex=" + probe_buf;
}

}  // namespace lcert
