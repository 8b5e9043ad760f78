// Determinism and correctness of the batch prover pipeline: for every
// registered scheme, prove_assignment must emit certificates bit-identical to
// the serial assign() baseline — at 1, 2 and 8 threads, with the subtree memo
// on and off — and those certificates must verify. Also pins the memo-counter
// plumbing on memo-friendly instances and the arena allocator's
// zero-steady-state-allocation contract.
#include <gtest/gtest.h>

#include <memory>

#include "src/automata/library.hpp"
#include "src/cert/engine.hpp"
#include "src/cert/prove.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/graph/tree_iso.hpp"
#include "src/schemes/mso_tree.hpp"
#include "src/schemes/registry.hpp"
#include "src/solve/solver.hpp"
#include "src/util/arena.hpp"
#include "src/util/bitio.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

void expect_bit_identical(const std::vector<Certificate>& a,
                          const std::vector<Certificate>& b, const std::string& label) {
  ASSERT_EQ(a.size(), b.size()) << label;
  for (std::size_t v = 0; v < a.size(); ++v) {
    EXPECT_EQ(a[v].bit_size, b[v].bit_size) << label << " vertex " << v;
    EXPECT_EQ(a[v].bytes, b[v].bytes) << label << " vertex " << v;
  }
}

class ProverPipelineSweep : public ::testing::TestWithParam<std::size_t> {};

// The contract every prove_batch override signs: its output is exactly
// assign()'s output, for every thread count, memo on or off, and under every
// FeasibilitySolver backend (cold-flow reference, greedy, SAT).
TEST_P(ProverPipelineSweep, BatchMatchesAssignAcrossThreadsMemoAndSolvers) {
  const auto entry = scheme_registry().at(GetParam());
  const auto scheme = entry.make();
  Rng rng(8100 + GetParam());
  const Graph g = entry.family.yes_instance(24, rng);

  const auto baseline = scheme->assign(g);
  ASSERT_TRUE(baseline.has_value()) << entry.key;

  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    for (const bool memo : {true, false}) {
      for (const auto& info : solve::SolverFactory::registry()) {
        RunOptions options;
        options.num_threads = threads;
        options.memoize = memo;
        options.solver = info.backend;
        const ProveResult result = prove_assignment(*scheme, g, options);
        ASSERT_TRUE(result.certificates.has_value())
            << entry.key << " threads=" << threads << " memo=" << memo
            << " solver=" << info.name;
        expect_bit_identical(*baseline, *result.certificates,
                             entry.key + " threads=" + std::to_string(threads) +
                                 " memo=" + (memo ? std::string("on") : "off") +
                                 " solver=" + info.name);
      }
    }
  }
}

// Solver decision totals, like memo totals, come from the serial solve
// passes — the same at every thread count.
TEST(ProverPipeline, SolverDecisionCountersAreThreadCountInvariant) {
  const MsoTreeScheme scheme(standard_tree_automata()[7]);  // leaves>=4
  Rng rng(91);
  Graph g = make_random_tree(256, rng);
  assign_random_ids(g, rng);

  RunOptions one;
  one.num_threads = 1;
  RunOptions eight;
  eight.num_threads = 8;
  const ProveResult a = prove_assignment(scheme, g, one);
  const ProveResult b = prove_assignment(scheme, g, eight);
  ASSERT_TRUE(a.certificates.has_value());
  EXPECT_EQ(a.feas.pruned, b.feas.pruned);
  EXPECT_EQ(a.feas.greedy, b.feas.greedy);
  EXPECT_EQ(a.feas.warm, b.feas.warm);
  EXPECT_EQ(a.feas.flow, b.feas.flow);
  EXPECT_EQ(a.feas.sat, b.feas.sat);
  // The cheap stages must be carrying real load on the cliff shape, and the
  // run must have resolved at least one query somewhere.
  EXPECT_GT(a.feas.total(), 0u);
  EXPECT_GT(a.feas.pruned + a.feas.greedy, 0u);
}

// What the batch prover emits, the radius-1 verifier accepts.
TEST_P(ProverPipelineSweep, BatchOutputVerifies) {
  const auto entry = scheme_registry().at(GetParam());
  const auto scheme = entry.make();
  Rng rng(8200 + GetParam());
  const Graph g = entry.family.yes_instance(20, rng);

  RunOptions options;
  options.num_threads = 2;
  const ProveResult result = prove_assignment(*scheme, g, options);
  ASSERT_TRUE(result.certificates.has_value()) << entry.key;
  const auto outcome = verify_assignment(*scheme, g, *result.certificates, options);
  EXPECT_TRUE(outcome.all_accept) << entry.key;
}

// The prover must still refuse on no-instances through the batch path.
TEST_P(ProverPipelineSweep, BatchRefusesOnNoInstance) {
  const auto entry = scheme_registry().at(GetParam());
  const auto scheme = entry.make();
  Rng rng(8300 + GetParam());
  const Graph g = entry.family.no_instance(20, rng);
  bool truth;
  try {
    truth = scheme->holds(g);
  } catch (const std::exception&) {
    return;  // instance outside the promise: refusal semantics untestable here
  }
  if (truth) return;  // family produced a yes-instance at this size; skip
  const ProveResult result = prove_assignment(*scheme, g, RunOptions{});
  EXPECT_FALSE(result.certificates.has_value()) << entry.key;
}

INSTANTIATE_TEST_SUITE_P(AllSchemes, ProverPipelineSweep,
                         ::testing::Range<std::size_t>(0, scheme_registry().size()));

// A complete binary tree is maximally memo-friendly: all subtrees at the
// same depth are isomorphic, so the feasibility cache collapses each level
// to one representative and almost every vertex is a hit.
TEST(ProverPipeline, MemoCountersFireOnCompleteBinaryTrees) {
  const MsoTreeScheme scheme(standard_tree_automata()[3]);  // max-degree<=3
  const Graph g = make_complete_binary_tree(8);             // 255 vertices

  RunOptions memo_on;
  const ProveResult with_memo = prove_assignment(scheme, g, memo_on);
  ASSERT_TRUE(with_memo.certificates.has_value());
  EXPECT_GT(with_memo.memo_hits, 0u);
  EXPECT_GT(with_memo.memo_misses, 0u);
  // The cache must be doing real work: far fewer misses than vertices, and
  // the overwhelming majority of lookups landing as hits.
  EXPECT_LT(with_memo.memo_misses, g.vertex_count() / 4);
  EXPECT_GT(with_memo.memo_hits, g.vertex_count());

  RunOptions memo_off;
  memo_off.memoize = false;
  const ProveResult without = prove_assignment(scheme, g, memo_off);
  ASSERT_TRUE(without.certificates.has_value());
  EXPECT_EQ(without.memo_hits, 0u);
  EXPECT_EQ(without.memo_misses, 0u);
  expect_bit_identical(*with_memo.certificates, *without.certificates, "memo on/off");
}

// Memo-hit totals are part of the determinism contract: counted by the
// serial solve passes, so the same at every thread count.
TEST(ProverPipeline, MemoCountersAreThreadCountInvariant) {
  const MsoTreeScheme scheme(standard_tree_automata()[3]);  // max-degree<=3
  const Graph g = make_complete_binary_tree(7);

  RunOptions one;
  one.num_threads = 1;
  RunOptions eight;
  eight.num_threads = 8;
  const ProveResult a = prove_assignment(scheme, g, one);
  const ProveResult b = prove_assignment(scheme, g, eight);
  EXPECT_EQ(a.memo_hits, b.memo_hits);
  EXPECT_EQ(a.memo_misses, b.memo_misses);
}

// Once warm, the per-worker arena must stop allocating: clear() rewinds the
// bit cursor without releasing capacity, so a steady stream of same-sized
// certificates touches no allocator after the first round.
TEST(ProverPipeline, ArenaWriterReachesZeroSteadyStateAllocations) {
  Arena arena;
  BitWriter w(arena);
  for (int round = 0; round < 3; ++round) {
    w.clear();
    for (int i = 0; i < 500; ++i) w.write(0x2Au, 6);
    (void)Certificate::from_writer(std::move(w));
  }
  const std::size_t warm = arena.chunks_allocated();
  for (int round = 0; round < 50; ++round) {
    w.clear();
    for (int i = 0; i < 500; ++i) w.write(0x15u, 6);
    (void)Certificate::from_writer(std::move(w));
  }
  EXPECT_EQ(arena.chunks_allocated(), warm);
}

// Arena reset() retains capacity across generations of writers.
TEST(ProverPipeline, ArenaResetRetainsCapacity) {
  Arena arena;
  (void)arena.allocate_array<std::uint8_t>(10000);
  const std::size_t cap = arena.capacity_bytes();
  const std::size_t chunks = arena.chunks_allocated();
  arena.reset();
  EXPECT_EQ(arena.capacity_bytes(), cap);
  (void)arena.allocate_array<std::uint8_t>(10000);
  EXPECT_EQ(arena.chunks_allocated(), chunks);
}

// The hash-consed code interner assigns equal ids exactly to isomorphic
// rooted subtrees: on a path rooted at an end, every proper subtree is again
// a path, so n vertices collapse to n distinct codes only by height — and on
// a star all leaves share one code.
TEST(ProverPipeline, CanonicalSubtreeCodesHashCons) {
  SubtreeCodeInterner interner;
  Rng rng(3);
  const Graph star = make_star(9);  // center 0, eight leaves
  const RootedTree t = RootedTree::from_graph(star, 0);
  const auto codes = canonical_subtree_codes(t, interner);
  ASSERT_EQ(codes.size(), 9u);
  // All leaves share the leaf code; the root's is distinct.
  for (Vertex v = 1; v < 9; ++v) EXPECT_EQ(codes[v], codes[1]);
  EXPECT_NE(codes[0], codes[1]);
  EXPECT_EQ(interner.size(), 2u);
}

}  // namespace
}  // namespace lcert
