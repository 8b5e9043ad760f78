// Incremental recertification layer (DESIGN.md §13).
//
// Two contracts are pinned here, both over randomized edit sequences:
//   1. RootedTree's patch API (graft_leaf / prune_leaf / reattach) leaves the
//      tree bit-identical to a cold RootedTree::from_graph over the mutated
//      graph — parent array, depths, and sorted children lists.
//   2. A live incr::CertifiedInstance stays bit-identical to a cold
//      prove_assignment over the accumulated graph after every edit, across
//      tree schemes — the incremental path is a pure speedup.
// The fuzz battery runs the same oracle (kIncrementalDivergence) inside
// random campaigns; these tests make the contract a deterministic tier-1
// gate with named edge cases (fallback scheme, raw edge edits, pure ID
// permutations, stats sanity).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/cert/prove.hpp"
#include "src/fuzz/mutators.hpp"
#include "src/graph/edit.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/incr/incremental.hpp"
#include "src/schemes/mso_tree.hpp"
#include "src/schemes/registry.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

// standard_tree_automata(): 2 = caterpillar, 4 = perfect-matching,
// 7 = leaves>=4 — one cheap run-state automaton, one parity-flavored one,
// and the widest counting one (k = 6).
constexpr std::size_t kCaterpillar = 2;
constexpr std::size_t kPerfectMatching = 4;
constexpr std::size_t kLeaves4 = 7;

void expect_same_tree(const RootedTree& got, const RootedTree& want) {
  ASSERT_EQ(got.size(), want.size());
  ASSERT_EQ(got.root(), want.root());
  for (std::size_t v = 0; v < want.size(); ++v) {
    EXPECT_EQ(got.parent(v), want.parent(v)) << "vertex " << v;
    EXPECT_EQ(got.depth(v), want.depth(v)) << "vertex " << v;
    const auto gc = got.children(v);
    const auto wc = want.children(v);
    ASSERT_EQ(gc.size(), wc.size()) << "vertex " << v;
    for (std::size_t i = 0; i < wc.size(); ++i) EXPECT_EQ(gc[i], wc[i]) << "vertex " << v;
  }
}

/// Mirrors a tree-preserving GraphEdit onto a RootedTree rooted at 0. The
/// subtree-swap descriptor is drawn under its own rooting, so under root 0
/// the deleted edge {a, c} is parent->child in either orientation; the
/// replacement edge {a, b} then re-roots the detached piece accordingly.
void apply_edit_to_tree(RootedTree& t, const GraphEdit& edit) {
  switch (edit.kind) {
    case EditKind::kLeafGraft: t.graft_leaf(edit.a); break;
    case EditKind::kLeafPrune: t.prune_leaf(edit.a); break;
    case EditKind::kSubtreeSwap:
      if (t.parent(edit.a) == edit.c) {
        t.reattach(edit.a, edit.a, edit.b);
      } else {
        ASSERT_EQ(t.parent(edit.c), edit.a) << "swap edge is not tree-adjacent";
        t.reattach(edit.c, edit.b, edit.a);
      }
      break;
    default: FAIL() << "edit kind has no tree image";
  }
}

GraphEdit make_edit(EditKind kind, Vertex a, Vertex b = 0, Vertex c = 0) {
  GraphEdit e;
  e.kind = kind;
  e.a = a;
  e.b = b;
  e.c = c;
  return e;
}

TEST(IncrementalTree, PatchMatchesColdRebuildOnRandomEditSequences) {
  // 1000 independent sequences of 3 structural edits each; after every edit
  // the patched tree must equal a cold from_graph of the mutated graph.
  const std::vector<fuzz::MutatorKind> kinds = {
      EditKind::kLeafGraft, EditKind::kLeafPrune, EditKind::kSubtreeSwap};
  for (std::uint64_t seq = 0; seq < 1000; ++seq) {
    Rng rng(seq + 1);
    Graph cur = make_random_tree(12, rng);
    assign_random_ids(cur, rng);
    RootedTree t = RootedTree::from_graph(cur, 0);
    for (int step = 0; step < 3; ++step) {
      const auto edit = fuzz::draw_edit(cur, kinds[rng.index(kinds.size())], rng);
      if (!edit.has_value()) continue;
      // The bare patch API keeps the rooting: pruning the root itself is the
      // incr layer's re-root concern, not RootedTree's.
      if (edit->kind == EditKind::kLeafPrune && edit->a == t.root()) continue;
      ASSERT_NO_FATAL_FAILURE(apply_edit_to_tree(t, *edit))
          << "seq " << seq << " step " << step << ": " << to_string(*edit);
      cur = apply_edit(cur, *edit);
      ASSERT_NO_FATAL_FAILURE(expect_same_tree(t, RootedTree::from_graph(cur, 0)))
          << "seq " << seq << " step " << step << ": " << to_string(*edit);
    }
  }
}

TEST(IncrementalTree, GraftReturnsNewIndexAndReattachReturnsPath) {
  // path 0-1-2-3
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  RootedTree t = RootedTree::from_graph(g, 0);
  EXPECT_EQ(t.graft_leaf(3), 4u);
  EXPECT_EQ(t.parent(4), 3u);
  EXPECT_EQ(t.depth(4), 4u);
  // Move the subtree rooted at 2, re-rooted at the grafted leaf 4, under 0:
  // the returned path runs from the new local root to the old one.
  const std::vector<std::size_t> path = t.reattach(2, 4, 0);
  ASSERT_EQ(path.size(), 3u);
  EXPECT_EQ(path.front(), 4u);
  EXPECT_EQ(path.back(), 2u);
  EXPECT_EQ(t.parent(4), 0u);
  EXPECT_EQ(t.parent(3), 4u);
  EXPECT_EQ(t.parent(2), 3u);
}

void expect_matches_cold(const Scheme& scheme, const incr::CertifiedInstance& live,
                         const Graph& expected, const RunOptions& options,
                         const std::string& where) {
  const auto cold = prove_assignment(scheme, expected, options).certificates;
  const auto& ours = live.certificates();
  ASSERT_EQ(ours.has_value(), cold.has_value()) << where;
  if (ours.has_value()) {
    EXPECT_TRUE(*ours == *cold) << where << ": certificates diverged";
  }
}

TEST(IncrementalCertify, BitIdenticalToColdProveAcrossTreeSchemes) {
  // >= 500 randomized trials (170 per scheme x 3 schemes), each a 4-edit walk
  // at n in [20, 40); certificates must match a cold prove_assignment of the
  // accumulated graph bit for bit after init and after every edit — on both
  // sides of the property boundary (uncertified states must agree too).
  const auto kinds = fuzz::tree_preserving_mutators();
  RunOptions options;
  options.num_threads = 1;
  for (const std::size_t automaton : {kCaterpillar, kPerfectMatching, kLeaves4}) {
    const MsoTreeScheme scheme(standard_tree_automata()[automaton]);
    for (std::uint64_t trial = 0; trial < 170; ++trial) {
      Rng rng(automaton * 1000 + trial);
      Graph cur = make_random_tree(20 + rng.index(20), rng);
      assign_random_ids(cur, rng);
      incr::CertifiedInstance live(scheme, options);
      ASSERT_TRUE(live.incremental());
      live.init(cur);
      ASSERT_NO_FATAL_FAILURE(
          expect_matches_cold(scheme, live, cur, options,
                              scheme.name() + " trial " + std::to_string(trial) + " init"));
      for (int step = 0; step < 4; ++step) {
        const auto edit = fuzz::draw_edit(cur, kinds[rng.index(kinds.size())], rng);
        if (!edit.has_value()) continue;
        const IncrementalStats st = live.apply(*edit);
        cur = apply_edit(cur, *edit);
        EXPECT_TRUE(st.reverify_clean);
        ASSERT_NO_FATAL_FAILURE(expect_matches_cold(
            scheme, live, cur, options,
            scheme.name() + " trial " + std::to_string(trial) + " step " +
                std::to_string(step) + " (" + to_string(*edit) + ")"));
      }
    }
  }
}

TEST(IncrementalCertify, FallbackSchemeReprovesColdEveryEdit) {
  // vertex-parity ships no incremental prover: the layer must fall back to a
  // cold re-prove per edit with identical results — including the certified
  // flip when a graft makes |V| odd.
  const RegisteredScheme& entry = find_scheme("vertex-parity");
  const auto scheme = entry.make();
  RunOptions options;
  options.num_threads = 1;
  Rng rng(7);
  Graph cur = entry.family.yes_instance(8, rng);
  ASSERT_EQ(cur.vertex_count() % 2, 0u);

  incr::CertifiedInstance live(*scheme, options);
  EXPECT_FALSE(live.incremental());
  ASSERT_TRUE(live.init(cur).has_value());

  VertexId max_id = 0;
  for (Vertex v = 0; v < cur.vertex_count(); ++v) max_id = std::max(max_id, cur.id(v));
  GraphEdit graft = make_edit(EditKind::kLeafGraft, 0);
  graft.fresh_id = max_id + 1;
  const IncrementalStats st = live.apply(graft);
  cur = apply_edit(cur, graft);
  EXPECT_TRUE(st.full_reprove);
  EXPECT_FALSE(st.certified);
  ASSERT_NO_FATAL_FAILURE(expect_matches_cold(*scheme, live, cur, options, "odd |V|"));

  GraphEdit graft2 = make_edit(EditKind::kLeafGraft, 1);
  graft2.fresh_id = max_id + 2;
  const IncrementalStats st2 = live.apply(graft2);
  cur = apply_edit(cur, graft2);
  EXPECT_TRUE(st2.certified);
  // Every certificate is new after the certified flip: all are re-verified.
  EXPECT_EQ(st2.reverified_vertices, cur.vertex_count());
  EXPECT_TRUE(st2.reverify_clean);
  ASSERT_NO_FATAL_FAILURE(expect_matches_cold(*scheme, live, cur, options, "even |V|"));
}

/// A scheme whose prover plants one bad certificate: vertex 0's is emptied
/// once the graph has more than `honest_n` vertices, so the inner verifier
/// there reads past its end.
class PlantedBadCertificate final : public Scheme {
 public:
  PlantedBadCertificate(std::unique_ptr<Scheme> inner, std::size_t honest_n)
      : inner_(std::move(inner)), honest_n_(honest_n) {}
  std::string name() const override { return inner_->name() + "+planted"; }
  bool holds(const Graph& g) const override { return inner_->holds(g); }
  std::optional<std::vector<Certificate>> assign(const Graph& g) const override {
    auto certs = inner_->assign(g);
    if (certs.has_value() && g.vertex_count() > honest_n_) (*certs)[0] = Certificate{};
    return certs;
  }
  bool verify(const ViewRef& view) const override { return inner_->verify(view); }

 private:
  std::unique_ptr<Scheme> inner_;
  std::size_t honest_n_;
};

TEST(IncrementalCertify, FallbackReverifyCatchesAPlantedBadCertificate) {
  // The cold re-prove fallback must re-verify what it changed, not report a
  // clean re-verification it never ran.
  const RegisteredScheme& entry = find_scheme("vertex-parity");
  Rng rng(7);
  const Graph g = entry.family.yes_instance(8, rng);
  const PlantedBadCertificate scheme(entry.make(), g.vertex_count());
  RunOptions options;
  options.num_threads = 1;
  incr::CertifiedInstance live(scheme, options);
  ASSERT_FALSE(live.incremental());
  ASSERT_TRUE(live.init(g).has_value());

  VertexId max_id = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) max_id = std::max(max_id, g.id(v));
  GraphEdit graft = make_edit(EditKind::kLeafGraft, 0);
  graft.fresh_id = max_id + 1;
  EXPECT_FALSE(live.apply(graft).certified);  // odd |V|
  GraphEdit graft2 = make_edit(EditKind::kLeafGraft, 1);
  graft2.fresh_id = max_id + 2;
  const IncrementalStats st = live.apply(graft2);
  EXPECT_TRUE(st.certified);
  EXPECT_EQ(st.reverified_vertices, g.vertex_count() + 2);
  EXPECT_FALSE(st.reverify_clean);
}

TEST(IncrementalCertify, RawEdgeEditsThrowAndLeaveInstanceUntouched) {
  const MsoTreeScheme scheme(standard_tree_automata()[kPerfectMatching]);
  Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  Rng rng(3);
  assign_random_ids(g, rng);
  RunOptions options;
  options.num_threads = 1;
  incr::CertifiedInstance live(scheme, options);
  ASSERT_TRUE(live.init(g).has_value());

  EXPECT_THROW(live.apply(make_edit(EditKind::kEdgeAdd, 0, 2)), std::invalid_argument);
  EXPECT_THROW(live.apply(make_edit(EditKind::kEdgeDelete, 1, 2)), std::invalid_argument);
  // The rejected edits must not have perturbed the live state.
  ASSERT_NO_FATAL_FAILURE(expect_matches_cold(scheme, live, g, options, "after throw"));
}

TEST(IncrementalCertify, IdPermutationChangesNoCertificates) {
  // MSO-on-trees certificates encode (depth mod 3, run state) only — a pure
  // relabeling is a zero-dirty edit: nothing re-proved, everything reused.
  const MsoTreeScheme scheme(standard_tree_automata()[kCaterpillar]);
  Rng rng(13);
  Graph g = make_caterpillar(6, 2);
  assign_random_ids(g, rng);
  RunOptions options;
  options.num_threads = 1;
  incr::CertifiedInstance live(scheme, options);
  ASSERT_TRUE(live.init(g).has_value());

  GraphEdit permute;
  permute.kind = EditKind::kIdPermute;
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    permute.ids.push_back(g.id(g.vertex_count() - 1 - v));
  const IncrementalStats st = live.apply(permute);
  const Graph relabeled = apply_edit(g, permute);

  EXPECT_TRUE(st.certified);
  EXPECT_FALSE(st.full_reprove);
  EXPECT_EQ(st.changed_certificates, 0u);
  EXPECT_EQ(st.reproved_vertices, 0u);
  EXPECT_DOUBLE_EQ(st.reuse_ratio, 1.0);
  ASSERT_NO_FATAL_FAILURE(expect_matches_cold(scheme, live, relabeled, options, "permute"));
}

TEST(IncrementalCertify, StatsStayWithinTheDirtySlice) {
  // A deep graft on a leaves>=4 instance: the repair must stay incremental
  // and its counters must describe a slice, not the whole instance.
  const MsoTreeScheme scheme(standard_tree_automata()[kLeaves4]);
  Rng rng(5);
  Graph g = make_random_tree(64, rng);
  assign_random_ids(g, rng);
  const RootedTree t = RootedTree::from_graph(g, 0);
  std::size_t anchor = 0;
  for (std::size_t v = 0; v < t.size(); ++v)
    if (t.depth(v) > t.depth(anchor)) anchor = v;

  RunOptions options;
  options.num_threads = 1;
  incr::CertifiedInstance live(scheme, options);
  ASSERT_TRUE(live.init(g).has_value());

  VertexId max_id = 0;
  for (Vertex v = 0; v < g.vertex_count(); ++v) max_id = std::max(max_id, g.id(v));
  GraphEdit graft = make_edit(EditKind::kLeafGraft, static_cast<Vertex>(anchor));
  graft.fresh_id = max_id + 1;
  const IncrementalStats st = live.apply(graft);
  EXPECT_TRUE(st.certified);
  EXPECT_FALSE(st.full_reprove);
  EXPECT_TRUE(st.reverify_clean);
  EXPECT_GE(st.dirty_path_len, 1u);
  EXPECT_LE(st.dirty_path_len, t.height() + 2);
  EXPECT_GE(st.reproved_vertices, 1u);
  EXPECT_LE(st.reproved_vertices, g.vertex_count());
  EXPECT_GE(st.reuse_ratio, 0.0);
  EXPECT_LE(st.reuse_ratio, 1.0);
  // The grafted leaf's certificate is necessarily new.
  EXPECT_GE(st.changed_certificates, 1u);
}

bool same_graph(const Graph& a, const Graph& b) {
  if (a.vertex_count() != b.vertex_count() || a.edges() != b.edges()) return false;
  return std::equal(a.ids().begin(), a.ids().end(), b.ids().begin(), b.ids().end());
}

TEST(IncrementalCertify, DuplicateIdEditsThrowAndLeaveInstanceUntouched) {
  // Both paths validate like apply_edit: a graft reusing an ID in use, or a
  // permutation repeating one, throws std::invalid_argument and changes
  // neither the certificates nor the graph.
  for (const std::string key : {"mso-leaves4", "vertex-parity"}) {
    const RegisteredScheme& entry = find_scheme(key);
    const auto scheme = entry.make();
    Rng rng(7);
    const Graph g = entry.family.yes_instance(24, rng);
    incr::CertifiedInstance live(*scheme);
    EXPECT_EQ(live.incremental(), key == "mso-leaves4");
    ASSERT_TRUE(live.init(g).has_value()) << key;
    const auto before = live.certificates();
    GraphEdit graft = make_edit(EditKind::kLeafGraft, 0);
    graft.fresh_id = g.id(g.vertex_count() - 1);
    EXPECT_THROW(live.apply(graft), std::invalid_argument) << key;
    GraphEdit permute;
    permute.kind = EditKind::kIdPermute;
    permute.ids.assign(g.ids().begin(), g.ids().end());
    permute.ids[1] = permute.ids[0];
    EXPECT_THROW(live.apply(permute), std::invalid_argument) << key;
    EXPECT_TRUE(live.certificates() == before) << key;
    EXPECT_TRUE(same_graph(live.graph(), g)) << key;
  }
}

TEST(IncrementalCertify, TombstonedChurnMatchesColdProve) {
  // 3n graft/prune/rehang edits at n = 4096 read certificates() only every
  // 512 edits, so tombstones pile up between reads: the slot store must
  // still match a cold prove_assignment bit for bit whenever it is read.
  const MsoTreeScheme scheme(standard_tree_automata()[kLeaves4]);
  const std::vector<fuzz::MutatorKind> kinds = {
      EditKind::kLeafGraft, EditKind::kLeafPrune, EditKind::kSubtreeSwap};
  RunOptions options;
  options.num_threads = 1;
  Rng rng(4096);
  Graph cur = make_random_tree(4096, rng);
  assign_random_ids(cur, rng);
  incr::CertifiedInstance live(scheme, options);
  ASSERT_TRUE(live.init(cur).has_value());
  const std::size_t edits = 3 * 4096;
  for (std::size_t e = 0; e < edits; ++e) {
    const auto edit = fuzz::draw_edit(cur, kinds[e % kinds.size()], rng);
    if (!edit.has_value()) continue;
    EXPECT_TRUE(live.apply(*edit).reverify_clean) << e;
    cur = apply_edit(cur, *edit);
    if (e % 512 == 511 || e + 1 == edits) {
      ASSERT_NO_FATAL_FAILURE(
          expect_matches_cold(scheme, live, cur, options, "edit " + std::to_string(e)));
    }
  }
}

TEST(IncrementalCertify, PruneOnlyCaterpillarWalkCompactsInsideApply) {
  // Pruning more than half of the legs passes the tombstone threshold, so
  // apply() compacts on its own; certificates must match cold afterwards.
  const MsoTreeScheme scheme(standard_tree_automata()[kCaterpillar]);
  RunOptions options;
  options.num_threads = 1;
  Rng rng(11);
  Graph cur = make_caterpillar(40, 3);
  assign_random_ids(cur, rng);
  incr::CertifiedInstance live(scheme, options);
  ASSERT_TRUE(live.init(cur).has_value());
  const std::size_t legs = cur.vertex_count() - 40;
  for (std::size_t k = 0; k < legs / 2 + 10; ++k) {
    Vertex leaf = cur.vertex_count();
    for (Vertex v = cur.vertex_count(); v-- > 0;)
      if (cur.degree(v) == 1 && cur.degree(cur.neighbors(v)[0]) > 2) {
        leaf = v;
        break;
      }
    ASSERT_LT(leaf, cur.vertex_count());
    const GraphEdit prune = make_edit(EditKind::kLeafPrune, leaf);
    EXPECT_TRUE(live.apply(prune).reverify_clean);
    cur = apply_edit(cur, prune);
  }
  ASSERT_NO_FATAL_FAILURE(expect_matches_cold(scheme, live, cur, options, "after prunes"));
}

TEST(IncrementalCertify, ChangedVerticesAreExactlyTheChangedCertificates) {
  // After each apply(), changed_vertices() lists exactly the post-edit
  // indices whose certificate differs from the same vertex's (matched by ID)
  // before the edit, plus a grafted vertex. The walk never reads the live
  // certificates, so tombstones build up and the slot-to-index translation
  // is what gets checked; the expectation comes from cold proves.
  const std::vector<fuzz::MutatorKind> kinds = {
      EditKind::kLeafGraft, EditKind::kLeafPrune, EditKind::kSubtreeSwap};
  RunOptions options;
  options.num_threads = 1;
  for (const std::size_t automaton : {kLeaves4, kCaterpillar}) {
    const MsoTreeScheme scheme(standard_tree_automata()[automaton]);
    Rng rng(31 + automaton);
    Graph cur = automaton == kCaterpillar ? make_caterpillar(20, 2) : make_random_tree(60, rng);
    assign_random_ids(cur, rng);
    incr::CertifiedInstance live(scheme, options);
    ASSERT_TRUE(live.init(cur).has_value());
    auto before = prove_assignment(scheme, cur, options).certificates;
    std::size_t checked = 0;
    for (std::size_t e = 0; e < 300; ++e) {
      const auto edit = fuzz::draw_edit(cur, kinds[e % kinds.size()], rng);
      if (!edit.has_value()) continue;
      // Walk inside the property, so that most edits repair incrementally.
      const Graph next = apply_edit(cur, *edit);
      if (!scheme.holds(next)) continue;
      const IncrementalStats st = live.apply(*edit);
      const auto after = prove_assignment(scheme, next, options).certificates;
      if (before.has_value() && after.has_value() && !live.changed_all()) {
        std::map<VertexId, const Certificate*> old_by_id;
        for (Vertex v = 0; v < cur.vertex_count(); ++v) old_by_id[cur.id(v)] = &(*before)[v];
        std::vector<std::size_t> want;
        for (Vertex v = 0; v < next.vertex_count(); ++v) {
          const auto it = old_by_id.find(next.id(v));
          if (it == old_by_id.end() || !(*it->second == (*after)[v])) want.push_back(v);
        }
        std::vector<std::size_t> got = live.changed_vertices();
        std::sort(got.begin(), got.end());
        EXPECT_EQ(got, want) << scheme.name() << " edit " << e << " (" << to_string(*edit) << ")";
        EXPECT_EQ(st.changed_certificates, want.size());
        ++checked;
      }
      cur = next;
      before = after;
    }
    EXPECT_GE(checked, 50u) << scheme.name();
    ASSERT_NO_FATAL_FAILURE(expect_matches_cold(scheme, live, cur, options, "end of walk"));
  }
}

}  // namespace
}  // namespace lcert
