#include <gtest/gtest.h>

#include "src/automata/box_index.hpp"
#include "src/automata/library.hpp"
#include "src/automata/presburger.hpp"
#include "src/automata/uop_automaton.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/tree_iso.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

using UC = UnaryConstraint;

TEST(Presburger, AtomEvaluation) {
  const auto c = UC::le(0, 2) && UC::ge(1, 1);
  EXPECT_TRUE(c.eval({2, 1}));
  EXPECT_TRUE(c.eval({0, 5}));
  EXPECT_FALSE(c.eval({3, 1}));
  EXPECT_FALSE(c.eval({1, 0}));
}

TEST(Presburger, NegationAndDisjunction) {
  const auto c = !(UC::le(0, 1)) || UC::exactly(1, 0);
  EXPECT_TRUE(c.eval({2, 7}));   // left holds
  EXPECT_TRUE(c.eval({0, 0}));   // right holds
  EXPECT_FALSE(c.eval({1, 3}));  // neither
}

TEST(Presburger, ConstantsAndEmptyBoxes) {
  EXPECT_TRUE(UC::always_true().eval({1, 2, 3}));
  EXPECT_FALSE(UC::always_false().eval({}));
  EXPECT_TRUE(UC::always_false().to_boxes(2).empty());
  EXPECT_EQ(UC::always_true().to_boxes(2).size(), 1u);
  // Contradiction produces no boxes.
  EXPECT_TRUE((UC::le(0, 1) && UC::ge(0, 3)).to_boxes(1).empty());
}

TEST(Presburger, BoxesAgreeWithEvalExhaustively) {
  // Random constraints over 3 states, counts in [0,4]^3.
  Rng rng(55);
  for (int trial = 0; trial < 60; ++trial) {
    // Build a random constraint tree.
    std::vector<UC> pool;
    for (int i = 0; i < 4; ++i) {
      const std::size_t q = rng.index(3);
      const std::size_t b = rng.index(4);
      pool.push_back(rng.coin() ? UC::le(q, b) : UC::ge(q, b));
    }
    UC c = pool[0];
    for (std::size_t i = 1; i < pool.size(); ++i) {
      switch (rng.index(3)) {
        case 0: c = c && pool[i]; break;
        case 1: c = c || pool[i]; break;
        default: c = !c || pool[i]; break;
      }
    }
    const auto boxes = c.to_boxes(3);
    std::vector<std::size_t> counts(3);
    for (counts[0] = 0; counts[0] <= 4; ++counts[0])
      for (counts[1] = 0; counts[1] <= 4; ++counts[1])
        for (counts[2] = 0; counts[2] <= 4; ++counts[2]) {
          bool in_boxes = false;
          for (const auto& box : boxes) in_boxes = in_boxes || box.contains(counts);
          EXPECT_EQ(in_boxes, c.eval(counts)) << c.to_string();
        }
  }
}

TEST(IntervalBox, ContainsAndUnboundedEdges) {
  IntervalBox b(2);
  b.lo = {1, 0};
  b.hi = {3, IntervalBox::kUnbounded};
  EXPECT_TRUE(b.contains({1, 0}));
  EXPECT_TRUE(b.contains({3, 1000000}));
  EXPECT_FALSE(b.contains({0, 5}));
  EXPECT_FALSE(b.contains({4, 0}));
  EXPECT_FALSE(b.empty());
  // Arity mismatch is a contract violation, not a silent false.
  EXPECT_THROW(b.contains({1}), std::invalid_argument);
  EXPECT_THROW(b.contains({1, 2, 3}), std::invalid_argument);
}

TEST(IntervalBox, EmptyAndIntersect) {
  IntervalBox a(2), b(2);
  a.lo = {0, 2};
  a.hi = {5, 4};
  b.lo = {3, 0};
  b.hi = {IntervalBox::kUnbounded, 3};
  const IntervalBox c = a.intersect(b);
  EXPECT_EQ(c.lo, (std::vector<std::size_t>{3, 2}));
  EXPECT_EQ(c.hi, (std::vector<std::size_t>{5, 3}));
  EXPECT_FALSE(c.empty());
  // Disjoint on coordinate 1 -> empty intersection (lo > hi).
  IntervalBox d(2);
  d.lo = {0, 5};
  d.hi = {IntervalBox::kUnbounded, 9};
  EXPECT_TRUE(a.intersect(d).empty());
  // An empty box (lo > bounded hi) reports empty, and an unbounded hi never
  // makes a box empty regardless of lo.
  IntervalBox e(1);
  e.lo = {4};
  e.hi = {2};
  EXPECT_TRUE(e.empty());
  e.hi = {IntervalBox::kUnbounded};
  EXPECT_FALSE(e.empty());
  EXPECT_THROW(a.intersect(e), std::invalid_argument);
}

TEST(Canonicalize, DropsSubsumedCoalescesAdjacent) {
  // [0,2] and [3,5] on one coordinate with equal other coordinates are
  // adjacent: they coalesce; the strictly-inside box is then subsumed.
  IntervalBox left(2), right(2), inside(2);
  left.lo = {0, 1};
  left.hi = {2, 1};
  right.lo = {3, 1};
  right.hi = {5, 1};
  inside.lo = {1, 1};
  inside.hi = {4, 1};
  const auto canon = canonicalize_boxes({left, inside, right});
  ASSERT_EQ(canon.size(), 1u);
  EXPECT_EQ(canon[0].lo, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(canon[0].hi, (std::vector<std::size_t>{5, 1}));
}

TEST(Canonicalize, EmptyBoxesAndMixedArity) {
  IntervalBox dead(2);
  dead.lo = {3, 0};
  dead.hi = {1, 0};  // lo > hi
  EXPECT_TRUE(canonicalize_boxes({dead}).empty());
  EXPECT_TRUE(canonicalize_boxes({}).empty());
  EXPECT_THROW(canonicalize_boxes({IntervalBox(2), IntervalBox(3)}),
               std::invalid_argument);
}

TEST(Canonicalize, SubsumptionWithUnboundedSides) {
  IntervalBox wide(1), narrow(1);
  wide.lo = {2};
  wide.hi = {IntervalBox::kUnbounded};
  narrow.lo = {5};
  narrow.hi = {9};
  EXPECT_TRUE(box_subsumes(wide, narrow));
  EXPECT_FALSE(box_subsumes(narrow, wide));
  const auto canon = canonicalize_boxes({narrow, wide});
  ASSERT_EQ(canon.size(), 1u);
  EXPECT_EQ(canon[0].lo[0], 2u);
  EXPECT_EQ(canon[0].hi[0], IntervalBox::kUnbounded);
}

// canonicalize_boxes must be idempotent and membership-preserving. Random
// raw DNFs over <= 4 states, exhaustive count sweep over [0,6]^k.
TEST(Canonicalize, IdempotentAndMembershipEquivalentExhaustively) {
  Rng rng(77);
  for (int trial = 0; trial < 40; ++trial) {
    const std::size_t k = 1 + rng.index(4);
    std::vector<UC> pool;
    for (int i = 0; i < 5; ++i) {
      const std::size_t q = rng.index(k);
      const std::size_t b = rng.index(6);
      pool.push_back(rng.coin() ? UC::le(q, b) : UC::ge(q, b));
    }
    UC c = pool[0];
    for (std::size_t i = 1; i < pool.size(); ++i) {
      switch (rng.index(3)) {
        case 0: c = c && pool[i]; break;
        case 1: c = c || pool[i]; break;
        default: c = !c || pool[i]; break;
      }
    }
    const auto raw = c.to_boxes_raw(k);
    const auto canon = canonicalize_boxes(raw);
    const auto twice = canonicalize_boxes(canon);
    ASSERT_EQ(canon.size(), twice.size()) << c.to_string();
    for (std::size_t i = 0; i < canon.size(); ++i) {
      EXPECT_EQ(canon[i].lo, twice[i].lo) << c.to_string();
      EXPECT_EQ(canon[i].hi, twice[i].hi) << c.to_string();
    }

    std::vector<std::size_t> counts(k, 0);
    while (true) {
      bool in_raw = false, in_canon = false;
      for (const auto& box : raw) in_raw = in_raw || box.contains(counts);
      for (const auto& box : canon) in_canon = in_canon || box.contains(counts);
      ASSERT_EQ(in_raw, in_canon) << c.to_string();
      // Odometer over [0,6]^k.
      std::size_t d = 0;
      while (d < k && counts[d] == 6) counts[d++] = 0;
      if (d == k) break;
      ++counts[d];
    }
  }
}

TEST(UopAutomaton, BuilderAndValidation) {
  AutomatonBuilder b;
  const auto q0 = b.add_state("leaf", false);
  const auto q1 = b.add_state("root", true);
  b.set_transition(q0, UC::exactly(q0, 0) && UC::exactly(q1, 0));
  b.set_transition(q1, UC::ge(q0, 1));
  const UOPAutomaton a = b.build();
  EXPECT_EQ(a.state_count, 2u);
  EXPECT_NO_THROW(a.validate());
}

TEST(UopAutomaton, AcceptingRunOnStar) {
  // Accept iff root has >= 2 leaf children.
  AutomatonBuilder b;
  const auto leaf = b.add_state("leaf", false);
  const auto root = b.add_state("root", true);
  b.set_transition(leaf, UC::exactly(leaf, 0) && UC::exactly(root, 0));
  b.set_transition(root, UC::ge(leaf, 2) && UC::exactly(root, 0));
  const UOPAutomaton a = b.build();

  const RootedTree star3({RootedTree::kNoParent, 0, 0, 0});
  const RootedTree star1({RootedTree::kNoParent, 0});
  EXPECT_TRUE(accepts(a, star3));
  EXPECT_FALSE(accepts(a, star1));
  const auto run = find_accepting_run(a, star3);
  ASSERT_TRUE(run.has_value());
  EXPECT_TRUE(is_accepting_run(a, star3, *run));
}

TEST(UopAutomaton, RunCheckerRejectsWrongRuns) {
  AutomatonBuilder b;
  const auto leaf = b.add_state("leaf", false);
  const auto root = b.add_state("root", true);
  b.set_transition(leaf, UC::exactly(leaf, 0) && UC::exactly(root, 0));
  b.set_transition(root, UC::ge(leaf, 1) && UC::exactly(root, 0));
  const UOPAutomaton a = b.build();
  const RootedTree star2({RootedTree::kNoParent, 0, 0});
  EXPECT_FALSE(is_accepting_run(a, star2, {leaf, leaf, leaf}));  // root not accepting
  EXPECT_FALSE(is_accepting_run(a, star2, {root, root, leaf}));  // bad transition
  EXPECT_TRUE(is_accepting_run(a, star2, {root, leaf, leaf}));
}

// Automata wider than 64 states take find_accepting_run's vector<bool> path
// (the mask path needs one word per vertex). Padding a library automaton
// with states whose transition is always false cannot change its language,
// so the wide path must accept exactly where the mask path does, with runs
// that never use a padding state. The precomputed-boxes overload must agree
// with the one that builds the boxes itself.
TEST(UopAutomaton, WideAutomatonMatchesTheMaskPath) {
  constexpr std::size_t kWide = 70;
  Rng rng(6464);
  const auto lib = standard_tree_automata();
  for (const std::size_t index : {std::size_t{2}, std::size_t{4}}) {  // caterpillar, pm
    const UOPAutomaton& narrow = lib[index].automaton;
    AutomatonBuilder b;
    for (std::size_t q = 0; q < kWide; ++q)
      b.add_state("q" + std::to_string(q), q < narrow.state_count && narrow.accepting[q]);
    for (std::size_t q = 0; q < narrow.state_count; ++q)
      b.set_transition(q, narrow.transition(q));
    const UOPAutomaton wide = b.build();
    std::vector<BoxIndex> boxes;
    for (std::size_t q = 0; q < kWide; ++q) boxes.emplace_back(wide.transition(q).to_boxes(kWide));

    for (int trial = 0; trial < 40; ++trial) {
      const Graph tree = make_random_tree(1 + rng.index(9), rng);
      const RootedTree t = RootedTree::from_graph(tree, rng.index(tree.vertex_count()));
      const auto expected = find_accepting_run(narrow, t);
      const auto run = find_accepting_run(wide, t);
      ASSERT_EQ(run.has_value(), expected.has_value()) << "automaton " << index;
      EXPECT_EQ(find_accepting_run(wide, t, boxes), run) << "automaton " << index;
      if (!run.has_value()) continue;
      for (const std::size_t state : *run) EXPECT_LT(state, narrow.state_count);
    }
  }
}

// Exhaustive cross-validation: every library automaton against its oracle on
// every tree with up to 9 vertices (via random sampling of parent arrays, and
// exhaustive AHU-deduplicated enumeration for small n).
class LibraryAutomata : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LibraryAutomata, MatchesOracleOnRandomTrees) {
  const auto entry = standard_tree_automata().at(GetParam());
  Rng rng(500 + GetParam());
  for (int trial = 0; trial < 150; ++trial) {
    const std::size_t n = 1 + rng.index(10);
    const Graph tree = make_random_tree(n, rng);
    const bool expected = entry.oracle(tree);

    // Completeness: some good root admits an accepting run.
    bool some_root_accepts = false;
    for (Vertex root : entry.good_roots(tree)) {
      if (accepts(entry.automaton, RootedTree::from_graph(tree, root))) {
        some_root_accepts = true;
        break;
      }
    }
    EXPECT_EQ(some_root_accepts, expected)
        << entry.name << " (completeness) on\n"
        << tree.to_string();

    // Soundness: no root of a no-instance admits an accepting run.
    if (!expected) {
      for (Vertex root = 0; root < tree.vertex_count(); ++root)
        EXPECT_FALSE(accepts(entry.automaton, RootedTree::from_graph(tree, root)))
            << entry.name << " (soundness) root " << root << " on\n"
            << tree.to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllAutomata, LibraryAutomata,
                         ::testing::Range<std::size_t>(0, 8));

TEST(LibraryAutomata, KnownInstances) {
  const auto lib = standard_tree_automata();
  auto get = [&lib](const std::string& name) -> const NamedAutomaton& {
    for (const auto& e : lib)
      if (e.name == name) return e;
    throw std::out_of_range(name);
  };

  auto accepts_tree = [](const NamedAutomaton& e, const Graph& tree) {
    for (Vertex root : e.good_roots(tree))
      if (accepts(e.automaton, RootedTree::from_graph(tree, root))) return true;
    return false;
  };

  EXPECT_TRUE(accepts_tree(get("path"), make_path(9)));
  EXPECT_FALSE(accepts_tree(get("path"), make_star(5)));
  EXPECT_TRUE(accepts_tree(get("star"), make_star(8)));
  EXPECT_FALSE(accepts_tree(get("star"), make_path(4)));
  EXPECT_TRUE(accepts_tree(get("caterpillar"), make_caterpillar(4, 3)));
  EXPECT_TRUE(accepts_tree(get("caterpillar"), make_path(6)));
  EXPECT_TRUE(accepts_tree(get("perfect-matching"), make_path(8)));
  EXPECT_FALSE(accepts_tree(get("perfect-matching"), make_path(7)));
  EXPECT_FALSE(accepts_tree(get("perfect-matching"), make_star(4)));
  EXPECT_TRUE(accepts_tree(get("perfect-code"), make_star(6)));
  EXPECT_TRUE(accepts_tree(get("radius<=3"), make_path(7)));
  EXPECT_FALSE(accepts_tree(get("radius<=3"), make_path(10)));
  EXPECT_TRUE(accepts_tree(get("leaves>=4"), make_star(5)));
  EXPECT_FALSE(accepts_tree(get("leaves>=4"), make_path(10)));
}

TEST(LibraryAutomata, SpiderHasNoPerfectMatchingButPathDoes) {
  // Spider with three legs of length 2: 7 vertices, odd, no PM.
  Graph spider(7, {{0, 1}, {1, 2}, {0, 3}, {3, 4}, {0, 5}, {5, 6}});
  const auto lib = standard_tree_automata();
  const auto& pm = lib[4];
  ASSERT_EQ(pm.name, "perfect-matching");
  EXPECT_FALSE(pm.oracle(spider));
  for (Vertex root = 0; root < spider.vertex_count(); ++root)
    EXPECT_FALSE(accepts(pm.automaton, RootedTree::from_graph(spider, root)));
}

}  // namespace
}  // namespace lcert
