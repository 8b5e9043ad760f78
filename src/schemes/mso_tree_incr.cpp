// Incremental recertification prover for MSO tree schemes (DESIGN.md §13).
//
// Maintains a live certified instance — rooted tree, per-vertex feasibility
// masks, run states, certificates — across streaming GraphEdits, repairing
// only the dirty slice per edit:
//
//   bottom-up   recompute feasibility masks of exactly the vertices whose
//               child-mask multiset changed (structural seeds + upward
//               propagation, stopping as soon as a recomputed mask matches);
//   top-down    re-extract child runs of exactly the vertices whose ordered
//               child-mask tuple or own run state changed (downward
//               propagation, stopping where the chosen child runs match);
//   re-patch    swap in the precomputed 3*k payload for vertices whose run
//               or depth-mod-3 changed.
//
// Both passes run through the same mso_detail::SolveCore the cold prover
// uses, against a memo that persists across edits (values are pure functions
// of their keys, so persistence is bit-identity-safe). The fast path is
// gated on root stability: the certification root must still be the first
// good root of the mutated tree — cold proving picks the first good root
// whose run accepts, and in this library every good root accepts on
// yes-instances (pinned by the automaton test battery), so first-good-root
// equality is exactly what bit-identity with a cold re-prove requires. Any
// gate failure falls back to a full re-prove that still reuses the warm memo
// and prover context.
//
// The state lives in slots that never move: a leaf prune tombstones its
// slot instead of renumbering the tree, and a LiveIndex translates an edit's
// dense vertex indices to slots and the changed slots back. One compaction
// drops the tombstones once they pass a fixed fraction of the live vertices,
// or when certificates() hands out its dense vector. Per-edit marks are
// epoch-stamped, so an edit touches only the memory of its dirty slice.
//
// Contract (enforced by the kIncrementalDivergence fuzz oracle and
// tests/test_incremental.cpp): after every apply(), certificates() is
// bit-identical to prove_assignment over the accumulated graph.
#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "src/cert/prove.hpp"
#include "src/graph/edit.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/schemes/mso_tree.hpp"
#include "src/schemes/mso_tree_detail.hpp"
#include "src/util/flat_set.hpp"
#include "src/util/live_index.hpp"

namespace lcert {

namespace {

/// apply() compacts once tombstones exceed 1/kLivePerDead of the live
/// vertices: one O(n) pass per n/kLivePerDead prunes, amortized O(1) each.
constexpr std::size_t kLivePerDead = 4;

struct CompactMetrics {
  obs::Counter compactions = obs::registry().counter("incr/compactions");
  std::uint32_t trace_compact = obs::trace_sink().name_id("incr/compact");
};

const CompactMetrics& compact_metrics() {
  static const CompactMetrics metrics;
  return metrics;
}

}  // namespace

class MsoTreeIncrementalProver final : public IncrementalProver {
 public:
  MsoTreeIncrementalProver(const MsoTreeScheme& scheme, const RunOptions& options)
      : scheme_(scheme), options_(options), ctx_(1, options) {
    core_ = scheme_.solve_core();  // borrows from scheme_, a stable member
    table_ = core_.payload_table(ctx_);
  }

  const std::optional<std::vector<Certificate>>& init(const Graph& g) override {
    rebuild_from(g);
    index_ids();
    changed_.clear();
    changed_all_ = true;
    return certs_;
  }

  IncrementalStats apply(const GraphEdit& edit) override {
    IncrementalStats st;
    const std::size_t hits0 = ctx_.memo_hits();
    const std::size_t miss0 = ctx_.memo_misses();
    changed_.clear();
    changed_all_ = false;
    apply_impl(edit, st);
    st.certified = certs_.has_value();
    st.memo_hits = ctx_.memo_hits() - hits0;
    st.memo_misses = ctx_.memo_misses() - miss0;
    const std::size_t n = live_.live();
    if (st.certified && n > 0) {
      st.changed_certificates = changed_all_ ? n : changed_.size();
      st.reuse_ratio =
          1.0 - static_cast<double>(st.changed_certificates) / static_cast<double>(n);
    }
    st.reverify_clean = reverify(st);
    for (std::size_t& v : changed_) v = live_.rank(v);  // slots -> post-edit indices
    if (tree_.dead_count() * kLivePerDead > n) compact();
    memo_.maybe_trim();  // bounds growth under unbounded edit streams
    return st;
  }

  const std::optional<std::vector<Certificate>>& certificates() const override {
    compact();  // the dense vector callers index by vertex
    return certs_;
  }
  const std::vector<std::size_t>& changed_vertices() const override { return changed_; }
  bool changed_all() const override { return changed_all_; }
  Graph graph() const override {
    compact();
    return materialize();
  }

 private:
  mso_detail::MsoMemo* memo_ptr() { return options_.memoize ? &memo_ : nullptr; }

  [[noreturn]] void reject(const GraphEdit& edit, const std::string& why) const {
    throw std::invalid_argument(scheme_.name() + ": " + to_string(edit) + ": " + why);
  }

  /// The accumulated graph, rebuilt from the tree + IDs on every call (O(n),
  /// off the hot path). Equal as a value to the apply_edit-accumulated
  /// graph: the tree patches replicate apply_edit's index semantics, and
  /// Graph normalizes adjacency order. Reads through tombstones (live slot s
  /// is vertex rank(s)), so the repair can call it mid-edit without
  /// renumbering the slots it holds.
  Graph materialize() const {
    const std::size_t slots = tree_.size();
    std::vector<Vertex> vertex_of(slots);
    std::vector<VertexId> ids;
    ids.reserve(live_.live());
    for (std::size_t s = 0; s < slots; ++s)
      if (tree_.is_live(s)) {
        vertex_of[s] = ids.size();
        ids.push_back(ids_[s]);
      }
    std::vector<std::pair<Vertex, Vertex>> edges;
    edges.reserve(ids.empty() ? 0 : ids.size() - 1);
    for (std::size_t s = 0; s < slots; ++s) {
      const std::size_t p = tree_.parent(s);
      if (p != RootedTree::kNoParent && p != RootedTree::kDead)
        edges.emplace_back(vertex_of[s], vertex_of[p]);
    }
    Graph g(ids.size(), edges);
    g.set_ids(std::move(ids));
    return g;
  }

  /// Slot of the first good root of the current tree — what a cold re-prove
  /// would pick. Cheap under the kAllVertices/kInternalVertices policies;
  /// kGeneric materializes the graph and asks good_roots itself.
  std::size_t first_good_root() const {
    switch (scheme_.automaton_.root_policy) {
      case RootPolicy::kAllVertices:
        return live_.select(0);
      case RootPolicy::kInternalVertices: {
        // roots_internal falls back to all vertices when n <= 2.
        if (live_.live() <= 2) return live_.select(0);
        for (std::size_t v = 0; v < tree_.size(); ++v) {
          if (!tree_.is_live(v)) continue;
          const std::size_t deg =
              tree_.children(v).size() + (v == tree_.root() ? 0 : 1);
          if (deg >= 2) return v;
        }
        return live_.select(0);  // unreachable: an n>=3 tree has an internal vertex
      }
      case RootPolicy::kGeneric: {
        const Graph g = materialize();
        const auto roots = scheme_.automaton_.good_roots(g);
        return live_.select(roots.empty() ? 0 : static_cast<std::size_t>(roots[0]));
      }
    }
    return live_.select(0);
  }

  /// Drops every tombstone from the slot store: afterwards slot v is vertex
  /// v. O(slots); a no-op without tombstones. Const because certificates()
  /// and graph() call it: it moves entries, it changes no vertex's state.
  void compact() const {
    if (tree_.dead_count() == 0) return;
    const CompactMetrics& m = compact_metrics();
    obs::TraceSpan span(m.trace_compact, 0, static_cast<std::int64_t>(tree_.dead_count()));
    m.compactions.add();
    tree_.drop_dead(ids_);
    tree_.drop_dead(mask_);
    tree_.drop_dead(run_);
    if (certs_.has_value()) tree_.drop_dead(*certs_);
    tree_.compact();
    live_.reset(tree_.size());
  }

  /// Room for one more slot. The slot arrays grow by 1/kLivePerDead rather
  /// than doubling: that is the tombstone headroom compaction allows, so a
  /// churning instance stays within 1 + 1/kLivePerDead of its live size.
  void reserve_slot() {
    const std::size_t slots = tree_.size();
    if (slots < slot_capacity_) return;
    const std::size_t want = slots + slots / kLivePerDead + 1;
    slot_capacity_ = want;
    tree_.reserve(want);
    ids_.reserve(want);
    mask_.reserve(want);
    run_.reserve(want);
    if (certs_.has_value()) certs_->reserve(want);
  }

  /// Rebuilds the set of IDs in use from ids_ (every slot live).
  void index_ids() {
    id_set_.clear();
    for (VertexId id : ids_) id_set_.insert(id);
  }

  /// Cold (but memo- and context-warm) full re-certification through the
  /// cold prover's own root loop, retaining the tree, mask and run state of
  /// the chosen root for later incremental repair.
  void rebuild_from(const Graph& g) {
    const std::size_t n = g.vertex_count();
    ids_.resize(n);
    for (Vertex v = 0; v < n; ++v) ids_[v] = g.id(v);
    const bool yes = scheme_.holds(g);  // throws off the tree promise
    std::vector<Vertex> roots = scheme_.automaton_.good_roots(g);
    const bool certify = yes && !roots.empty();
    // Uncertified: solve only the first good root (vertex 0 if none), to
    // keep its masks warm so a later edit can revalidate incrementally.
    if (!certify) roots.resize(1);
    mso_detail::RootSolve s = core_.solve(g, roots, ctx_, memo_ptr());
    tree_ = std::move(s.tree);
    live_.reset(n);
    slot_capacity_ = n;
    mask_ = std::move(s.mask);
    // A yes-instance no good root accepted is, defensively, uncertified too:
    // cold answers nullopt there as well.
    if (!certify || s.run.empty()) {
      run_.assign(n, SIZE_MAX);
      certs_.reset();
      return;
    }
    run_ = std::move(s.run);
    std::vector<Certificate> certs(n);
    for (std::size_t v = 0; v < n; ++v)
      certs[v] = table_[(tree_.depth(v) % 3) * core_.k + run_[v]];
    certs_ = std::move(certs);
  }

  void full_rebuild(const Graph& g, IncrementalStats& st) {
    st.full_reprove = true;
    changed_all_ = true;
    rebuild_from(g);
    st.reproved_vertices += tree_.size();
  }

  void apply_impl(const GraphEdit& edit, IncrementalStats& st) {
    const std::size_t n = live_.live();
    switch (edit.kind) {
      case EditKind::kEdgeAdd:
      case EditKind::kEdgeDelete:
        reject(edit, "raw edge edits leave the tree family");
      case EditKind::kIdPermute: {
        if (edit.ids.size() != n) reject(edit, "id vector size mismatch");
        std::vector<VertexId> sorted = edit.ids;
        std::sort(sorted.begin(), sorted.end());
        if (!sorted.empty() && sorted.front() == 0) reject(edit, "IDs must be >= 1");
        if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end())
          reject(edit, "duplicate ID");
        compact();  // edit.ids is in vertex order; slot v must be vertex v
        ids_ = edit.ids;
        index_ids();
            // Certificates encode (depth mod 3, run state) only — relabeling
        // changes nothing. Zero-dirty edit.
        return;
      }
      case EditKind::kLeafGraft: {
        if (edit.a >= n) reject(edit, "anchor out of range");
        if (edit.fresh_id == 0) reject(edit, "IDs must be >= 1");
        if (id_set_.contains(edit.fresh_id)) reject(edit, "fresh ID already in use");
        const std::size_t anchor = live_.select(edit.a);
        reserve_slot();
        const std::size_t leaf = tree_.graft_leaf(anchor);
        live_.append();
        id_set_.insert(edit.fresh_id);
        ids_.push_back(edit.fresh_id);
        mask_.push_back(0);
        run_.push_back(SIZE_MAX);
        if (certs_.has_value()) certs_->emplace_back();
            mask_[leaf] = core_.memo_mask(tree_, mask_, leaf, ctx_, memo_ptr());
        ++st.reproved_vertices;
        finish_structural({anchor}, {}, {leaf}, st);
        return;
      }
      case EditKind::kLeafPrune: {
        if (edit.a >= n) reject(edit, "vertex out of range");
        const std::size_t v = live_.select(edit.a);
        const bool is_tree_leaf = tree_.is_leaf(v) && v != tree_.root();
        const bool is_degree1_root =
            v == tree_.root() && tree_.children(v).size() == 1;
        if (!is_tree_leaf && !is_degree1_root) reject(edit, "not a degree-1 vertex");
        const VertexId gone = ids_[v];
        if (is_degree1_root) {
          // Pruning the certification root: no incremental image — the root
          // moves by definition. Warm full re-prove of the mutated graph.
          full_rebuild(apply_edit(materialize(), edit), st);
          id_set_.erase(gone);
          return;
        }
        const std::size_t p = tree_.parent(v);
        tree_.kill_leaf(v);
        live_.kill(v);
        id_set_.erase(gone);
        if (certs_.has_value()) (*certs_)[v] = Certificate{};  // frees the payload
            finish_structural({p}, {}, {}, st);
        return;
      }
      case EditKind::kSubtreeSwap: {
        if (edit.a >= n || edit.b >= n || edit.c >= n)
          reject(edit, "endpoint out of range");
        const std::size_t m = live_.select(edit.a);
        const std::size_t np = live_.select(edit.b);
        const std::size_t op = live_.select(edit.c);
        // Child endpoint of the deleted edge {m, op} under *our* rooting.
        std::size_t c0;
        if (tree_.parent(m) == op) c0 = m;
        else if (tree_.parent(op) == m) c0 = op;
        else reject(edit, "old-parent edge not present");
        if (m == np) reject(edit, "loop");
        if (tree_.parent(m) == np || tree_.parent(np) == m)
          reject(edit, "new-parent edge already present");
        // Attachment endpoint of the added edge {m, np}: the one inside the
        // detached subtree; the other becomes its new parent. reattach
        // validates both sides (a cycle-creating swap throws there).
        const std::size_t a_end = tree_.is_ancestor(c0, np) ? np : m;
        const std::size_t p_end = a_end == np ? m : np;
        const std::vector<std::size_t> moved = tree_.subtree(c0);
        std::vector<std::size_t> old_mod(moved.size());
        for (std::size_t i = 0; i < moved.size(); ++i)
          old_mod[i] = tree_.depth(moved[i]) % 3;
        const std::size_t pc0 = tree_.parent(c0);
        std::vector<std::size_t> seeds = tree_.reattach(c0, a_end, p_end);
            seeds.push_back(pc0);
        seeds.push_back(p_end);
        // Depth-mod-3 changes are confined to the moved piece.
        std::vector<std::size_t> mod3_changed;
        for (std::size_t i = 0; i < moved.size(); ++i)
          if (tree_.depth(moved[i]) % 3 != old_mod[i]) mod3_changed.push_back(moved[i]);
        finish_structural(std::move(seeds), std::move(mod3_changed), {}, st);
        return;
      }
    }
    reject(edit, "unknown edit kind");
  }

  /// Shared tail of every structural edit: root-stability gate, bottom-up
  /// mask repair from `seeds`, certification-status transitions, top-down
  /// run repair, certificate re-patch of `run changes + mod3_changed +
  /// fresh`. The tree is already patched when this runs.
  void finish_structural(std::vector<std::size_t> seeds,
                         std::vector<std::size_t> mod3_changed,
                         std::vector<std::size_t> fresh, IncrementalStats& st) {
    std::size_t max_depth = 0;
    for (std::size_t s : seeds) max_depth = std::max(max_depth, tree_.depth(s));
    st.dirty_path_len = seeds.empty() ? 0 : max_depth + 1;

    if (first_good_root() != tree_.root()) {
      full_rebuild(materialize(), st);
      return;
    }

    mso_detail::MsoMemo* memo = memo_ptr();

    // Bottom-up repair, deepest bucket first: recompute the mask of every
    // vertex whose child-mask multiset changed; a changed result marks the
    // parent dirty, an unchanged one stops the upward propagation.
    marks_.begin(tree_.size());  // marked = in the dirty set
    std::vector<std::vector<std::size_t>> buckets(max_depth + 1);
    std::vector<std::size_t> dirty_all;
    for (std::size_t s : seeds)
      if (marks_.mark(s)) buckets[tree_.depth(s)].push_back(s);
    for (std::size_t d = buckets.size(); d-- > 0;) {
      for (std::size_t i = 0; i < buckets[d].size(); ++i) {
        const std::size_t v = buckets[d][i];
        dirty_all.push_back(v);
        const std::uint64_t old = mask_[v];
        const std::uint64_t neu = core_.memo_mask(tree_, mask_, v, ctx_, memo);
        ++st.reproved_vertices;
        if (neu == old) continue;
        mask_[v] = neu;
        if (v == tree_.root()) continue;
        const std::size_t p = tree_.parent(v);
        if (marks_.mark(p)) buckets[tree_.depth(p)].push_back(p);
      }
    }

    const std::size_t root_state = core_.accepting_state(mask_[tree_.root()]);
    const bool was_certified = certs_.has_value();

    if (root_state == SIZE_MAX) {
      // The root mask rejects. If the property nevertheless holds this is a
      // library bug (every good root accepts on yes-instances); cold would
      // fall through to the next good root — mirror it with a warm full
      // rebuild. Otherwise the instance flipped to uncertified: cold answers
      // nullopt after its holds() guard, and the repaired masks stay warm.
      const Graph g = materialize();
      if (scheme_.holds(g)) {
        full_rebuild(g, st);
        return;
      }
      certs_.reset();
      run_.assign(tree_.size(), SIZE_MAX);
      if (was_certified) changed_all_ = true;
      return;
    }

    // The root mask accepts: by automaton soundness (no rooted tree lacking
    // the property accepts) the property holds, so the holds() oracle is
    // skipped on this hot path — that equivalence is pinned by the automaton
    // test battery (DESIGN.md §13).
    if (!was_certified) {
      // Revalidation: the run is stale everywhere, so extraction is a full
      // top-down (the repaired masks were kept warm for exactly this) over
      // the levels of the compacted tree.
      compact();
      const std::size_t n = tree_.size();
      run_.assign(n, SIZE_MAX);
      run_[tree_.root()] = root_state;
      const auto levels = tree_.levels();
      core_.top_down(tree_, levels, ctx_, memo, mask_, run_);
      std::vector<Certificate> certs(n);
      for (std::size_t v = 0; v < n; ++v)
        certs[v] = table_[(tree_.depth(v) % 3) * core_.k + run_[v]];
      certs_ = std::move(certs);
      changed_all_ = true;
      st.reproved_vertices += n;
      return;
    }

    // Top-down repair, ascending depth: re-extract every vertex whose tuple
    // changed (dirty_all) or whose run state changed (propagated); children
    // whose chosen run matches the old one stop the downward propagation.
    std::vector<std::size_t> order = dirty_all;
    std::vector<std::size_t> run_changed;
    if (run_[tree_.root()] != root_state) {
      run_[tree_.root()] = root_state;
      run_changed.push_back(tree_.root());
      if (!marks_.marked(tree_.root())) order.push_back(tree_.root());
    }
    marks_.begin(tree_.size());  // marked = extracted
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) { return tree_.depth(a) < tree_.depth(b); });
    std::vector<std::size_t> stack;
    std::vector<std::size_t> scratch;
    const auto process = [&](std::size_t start) {
      stack.push_back(start);
      while (!stack.empty()) {
        const std::size_t v = stack.back();
        stack.pop_back();
        if (!marks_.mark(v)) continue;
        const auto kids = tree_.children(v);
        if (kids.empty()) continue;
        const std::vector<std::size_t>& chosen =
            core_.memo_extract(tree_, mask_, v, run_[v], ctx_, memo, scratch);
        ++st.reproved_vertices;
        for (std::size_t j = 0; j < kids.size(); ++j) {
          const std::size_t c = kids[j];
          if (run_[c] == chosen[j]) continue;
          run_[c] = chosen[j];
          run_changed.push_back(c);
          stack.push_back(c);
        }
      }
    };
    for (std::size_t v : order)
      if (!marks_.marked(v)) process(v);

    // Certificate re-patch: a cert changes iff its run or depth-mod-3 did.
    marks_.begin(tree_.size());  // marked = considered
    const auto consider = [&](std::size_t v) {
      if (!marks_.mark(v)) return;
      const Certificate& want = table_[(tree_.depth(v) % 3) * core_.k + run_[v]];
      if ((*certs_)[v] != want) {
        (*certs_)[v] = want;
        changed_.push_back(v);
      }
    };
    for (std::size_t v : run_changed) consider(v);
    for (std::size_t v : mod3_changed) consider(v);
    for (std::size_t v : fresh) consider(v);
  }

  /// Radius-1 re-verification of the changed slice: every changed vertex
  /// plus its tree neighborhood, through the scheme's own verify_batch.
  /// Runs before changed_ is translated from slots to indices.
  bool reverify(IncrementalStats& st) {
    if (!certs_.has_value()) return true;
    std::vector<std::size_t> targets;
    if (changed_all_) {
      targets.reserve(live_.live());
      for (std::size_t v = 0; v < tree_.size(); ++v)
        if (tree_.is_live(v)) targets.push_back(v);
    } else {
      if (changed_.empty()) return true;
      marks_.begin(tree_.size());  // marked = a target
      const auto add = [&](std::size_t v) {
        if (marks_.mark(v)) targets.push_back(v);
      };
      for (std::size_t v : changed_) {
        add(v);
        if (tree_.parent(v) != RootedTree::kNoParent) add(tree_.parent(v));
        for (std::size_t c : tree_.children(v)) add(c);
      }
    }
    st.reverified_vertices = targets.size();

    std::size_t total = 0;
    for (std::size_t v : targets)
      total += tree_.children(v).size() + (v == tree_.root() ? 0 : 1);
    std::vector<NeighborRef> flat;
    flat.reserve(total);
    std::vector<std::size_t> offs;
    offs.reserve(targets.size() + 1);
    offs.push_back(0);
    const auto& certs = *certs_;
    for (std::size_t v : targets) {
      if (tree_.parent(v) != RootedTree::kNoParent) {
        const std::size_t p = tree_.parent(v);
        flat.push_back({ids_[p], &certs[p]});
      }
      for (std::size_t c : tree_.children(v)) flat.push_back({ids_[c], &certs[c]});
      offs.push_back(flat.size());
    }
    std::vector<ViewRef> views(targets.size());
    for (std::size_t i = 0; i < targets.size(); ++i) {
      const std::size_t v = targets[i];
      views[i] = ViewRef{ids_[v], &certs[v], flat.data() + offs[i],
                         offs[i + 1] - offs[i]};
    }
    std::vector<std::uint8_t> accept(targets.size(), 0);
    scheme_.verify_batch(views, accept);
    return std::all_of(accept.begin(), accept.end(),
                       [](std::uint8_t a) { return a == 1; });
  }

  MsoTreeScheme scheme_;  ///< own copy: the prover is self-contained
  RunOptions options_;
  ProverContext ctx_;  ///< persistent: the feasibility solver stays warm
  mso_detail::SolveCore core_;
  mso_detail::MsoMemo memo_;  ///< persists across edits (pure values)
  std::vector<Certificate> table_;  ///< 3*k payloads, built once

  // The slot store: one entry per slot, live or tombstoned. Mutable because
  // the const accessors compact it (a move of entries, not a state change).
  mutable RootedTree tree_;
  mutable std::vector<VertexId> ids_;
  mutable std::vector<std::uint64_t> mask_;
  mutable std::vector<std::size_t> run_;
  mutable std::optional<std::vector<Certificate>> certs_;
  mutable LiveIndex live_;  ///< vertex index <-> slot
  std::size_t slot_capacity_ = 0;  ///< slots the arrays hold without growing

  FlatKeySet id_set_;  ///< IDs in use, for the graft's fresh-ID check
  EpochMarks marks_;   ///< per-pass slot marks of the repair and re-verify
  std::vector<std::size_t> changed_;  ///< post-edit indices (slots inside apply)
  bool changed_all_ = false;
};

std::unique_ptr<IncrementalProver> MsoTreeScheme::make_incremental_prover(
    const RunOptions& options) const {
  if (automaton_.automaton.state_count > 64) return nullptr;  // masks are words
  return std::make_unique<MsoTreeIncrementalProver>(*this, options);
}

}  // namespace lcert
