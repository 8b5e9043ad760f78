// The solve/ layer above the per-box exactness tests (test_uop_feasibility):
// the MiniCdcl core itself, the SAT backend's witness contract, the backend
// name mapping, the registry-wide bit-identity sweep (every scheme x
// every backend x 1/4/8 threads reproduces assign() exactly), and the
// AttackStrategy plan — in particular the sat-run forgery search, which must
// find nothing on sound schemes and report *why* (every rooting exhausted).
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/cert/audit.hpp"
#include "src/cert/prove.hpp"
#include "src/schemes/registry.hpp"
#include "src/solve/sat.hpp"
#include "src/solve/solver.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

// --- MiniCdcl ---------------------------------------------------------------

TEST(MiniCdcl, UnitPropagationAndConflicts) {
  solve::MiniCdcl sat;
  const std::size_t a = sat.new_var();
  const std::size_t b = sat.new_var();
  sat.add_clause({solve::MiniCdcl::pos(a)});                           // a
  sat.add_clause({solve::MiniCdcl::neg(a), solve::MiniCdcl::pos(b)});  // a -> b
  ASSERT_TRUE(sat.solve());
  EXPECT_TRUE(sat.value(a));
  EXPECT_TRUE(sat.value(b));

  sat.reset();
  const std::size_t c = sat.new_var();
  sat.add_clause({solve::MiniCdcl::pos(c)});
  sat.add_clause({solve::MiniCdcl::neg(c)});
  EXPECT_FALSE(sat.solve());

  sat.reset();
  sat.add_clause({});  // empty clause: trivially unsat
  EXPECT_FALSE(sat.solve());
}

TEST(MiniCdcl, CardinalityBounds) {
  // Exactly 2 of 4 true, with var 0 forced false: model must pick 2 of the
  // remaining 3.
  solve::MiniCdcl sat;
  std::vector<std::size_t> vars;
  for (int i = 0; i < 4; ++i) vars.push_back(sat.new_var());
  sat.add_cardinality(vars, 2, 2);
  sat.add_clause({solve::MiniCdcl::neg(vars[0])});
  ASSERT_TRUE(sat.solve());
  int trues = 0;
  for (const std::size_t v : vars) trues += sat.value(v) ? 1 : 0;
  EXPECT_EQ(trues, 2);
  EXPECT_FALSE(sat.value(vars[0]));

  // lo > population is unsat outright.
  sat.reset();
  vars.clear();
  for (int i = 0; i < 3; ++i) vars.push_back(sat.new_var());
  sat.add_cardinality(vars, 4, 10);
  EXPECT_FALSE(sat.solve());

  // Interacting cardinalities: >=2 of {a,b,c} but <=1 of {a,b} forces c.
  sat.reset();
  const std::size_t a = sat.new_var();
  const std::size_t b = sat.new_var();
  const std::size_t c = sat.new_var();
  sat.add_cardinality({a, b, c}, 2, 3);
  sat.add_cardinality({a, b}, 0, 1);
  ASSERT_TRUE(sat.solve());
  EXPECT_TRUE(sat.value(c));
}

TEST(MiniCdcl, DeterministicModel) {
  // Same encode -> same trail -> same model, a determinism-contract pin.
  std::vector<bool> first;
  for (int round = 0; round < 2; ++round) {
    solve::MiniCdcl sat;
    std::vector<std::size_t> vars;
    for (int i = 0; i < 6; ++i) vars.push_back(sat.new_var());
    sat.add_cardinality(vars, 2, 4);
    sat.add_clause({solve::MiniCdcl::neg(vars[1]), solve::MiniCdcl::pos(vars[4])});
    sat.add_cardinality({vars[0], vars[2], vars[5]}, 1, 1);
    ASSERT_TRUE(sat.solve());
    std::vector<bool> model;
    for (const std::size_t v : vars) model.push_back(sat.value(v));
    if (round == 0)
      first = model;
    else
      EXPECT_EQ(first, model);
  }
}

// --- backend names ----------------------------------------------------------

TEST(SolverBackendNames, RoundTripAndListing) {
  for (const auto& info : solve::SolverFactory::registry()) {
    EXPECT_STREQ(solve::backend_name(info.backend), info.name);
    const auto parsed = solve::parse_backend(info.name);
    ASSERT_TRUE(parsed.has_value()) << info.name;
    EXPECT_EQ(*parsed, info.backend);
    EXPECT_NE(solve::backend_listing().find(info.name), std::string::npos);
  }
  EXPECT_FALSE(solve::parse_backend("dinic").has_value());
  EXPECT_FALSE(solve::parse_backend("").has_value());
}

// --- witness contract -------------------------------------------------------

// decide_witness must agree with decide and hand back a *valid* witness —
// in-mask states whose counts land in the box — for every backend, including
// the SAT model path (which may differ from the pristine assignment but must
// still satisfy the box).
TEST(SolverWitness, EveryBackendProducesValidWitnesses) {
  Rng rng(424242);
  for (const auto& info : solve::SolverFactory::registry()) {
    const auto feas = solve::SolverFactory::make(info.backend);
    for (int trial = 0; trial < 800; ++trial) {
      const std::size_t k = rng.uniform(1, 4);
      const std::size_t m = rng.uniform(0, 6);
      std::vector<std::uint64_t> masks(m);
      for (auto& mask : masks) mask = rng.uniform(0, (std::uint64_t{1} << k) - 1);
      IntervalBox box(k);
      for (std::size_t q = 0; q < k; ++q) {
        box.lo[q] = rng.uniform(0, 2);
        box.hi[q] = rng.coin(0.4) ? IntervalBox::kUnbounded : rng.uniform(0, 4);
      }
      feas->begin(masks, k);
      const bool decided = feas->decide(box);
      std::vector<std::size_t> witness;
      ASSERT_EQ(feas->decide_witness(box, witness), decided)
          << info.name << " trial " << trial;
      if (!decided) continue;
      ASSERT_EQ(witness.size(), m) << info.name << " trial " << trial;
      std::vector<std::size_t> counts(k, 0);
      for (std::size_t i = 0; i < m; ++i) {
        ASSERT_LT(witness[i], k);
        ASSERT_TRUE(masks[i] >> witness[i] & 1u)
            << info.name << " trial " << trial << " child " << i;
        ++counts[witness[i]];
      }
      for (std::size_t q = 0; q < k; ++q) {
        EXPECT_GE(counts[q], box.lo[q]) << info.name << " trial " << trial;
        if (box.hi[q] != IntervalBox::kUnbounded) {
          EXPECT_LE(counts[q], box.hi[q]) << info.name << " trial " << trial;
        }
      }
    }
  }
}

// --- registry-wide bit-identity sweep ---------------------------------------

// The acceptance gate of the whole seam: on every registered scheme, every
// backend reproduces assign()'s certificates bit-for-bit at 1, 4 and 8
// threads. (Solver choice affects *decisions* only; assignments always come
// from the pristine extraction.)
TEST(SolverRegistrySweep, AllSchemesAllBackendsBitIdenticalToAssign) {
  for (const auto& entry : scheme_registry()) {
    const auto scheme = entry.make();
    Rng rng(6100);
    const Graph g = entry.family.yes_instance(20, rng);
    const auto baseline = scheme->assign(g);
    ASSERT_TRUE(baseline.has_value()) << entry.key;
    for (const auto& info : solve::SolverFactory::registry()) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}, std::size_t{8}}) {
        RunOptions options;
        options.num_threads = threads;
        options.solver = info.backend;
        const ProveResult result = prove_assignment(*scheme, g, options);
        ASSERT_TRUE(result.certificates.has_value())
            << entry.key << " solver=" << info.name << " threads=" << threads;
        ASSERT_EQ(baseline->size(), result.certificates->size()) << entry.key;
        for (std::size_t v = 0; v < baseline->size(); ++v)
          ASSERT_TRUE((*baseline)[v] == (*result.certificates)[v])
              << entry.key << " solver=" << info.name << " threads=" << threads
              << " vertex " << v;
      }
    }
  }
}

// --- the attack-strategy plan ----------------------------------------------

TEST(AttackPlan, StandardPlanDeclaresBudgetsFromOptions) {
  RunOptions options;
  options.random_trials = 17;
  options.mutation_trials = 5;
  const auto plan = standard_attack_plan(options);
  ASSERT_GE(plan.size(), 6u);
  std::vector<std::string> names;
  for (const auto& s : plan) names.push_back(s.name);
  EXPECT_EQ(names.front(), "random");
  EXPECT_EQ(names.back(), "sat-run");  // draws no rng, must run last
  EXPECT_EQ(plan.front().budget, 17u);
  for (const auto& s : plan) {
    if (s.name == "bit-flip") {
      EXPECT_EQ(s.budget, 5u);
    }
  }
}

// Every scheme in the registry must survive the full plan on its own
// no-instance — and the per-strategy outcomes must account for the whole
// plan, with the sat-run row explaining itself either way (exhausted
// rootings, inapplicable surface, or a budget cap), never silently absent.
TEST(AttackPlan, AuditReportNamesEveryStrategyAndFindsNoForgery) {
  for (const auto& entry : scheme_registry()) {
    const auto scheme = entry.make();
    Rng rng(97);
    const Graph yes = entry.family.yes_instance(14, rng);
    const auto tmpl = scheme->assign(yes);
    const Graph no = entry.family.no_instance(14, rng);
    RunOptions options;
    options.random_trials = 8;
    options.mutation_trials = 8;
    const SoundnessAuditReport report =
        run_soundness_audit(*scheme, no, tmpl ? &*tmpl : nullptr, rng, options);
    EXPECT_FALSE(report.forgery.has_value()) << entry.key;
    ASSERT_EQ(report.outcomes.size(), standard_attack_plan(options).size()) << entry.key;
    bool saw_sat_run = false;
    for (const AttackOutcome& out : report.outcomes) {
      EXPECT_FALSE(out.forged) << entry.key << " " << out.strategy;
      EXPECT_LE(out.trials, out.budget) << entry.key << " " << out.strategy;
      if (out.strategy == "sat-run") {
        saw_sat_run = true;
        EXPECT_FALSE(out.detail.empty()) << entry.key;
      }
    }
    EXPECT_TRUE(saw_sat_run) << entry.key;
  }
}

// The compatibility wrapper still answers the one-shot question.
TEST(AttackPlan, AttackSoundnessWrapperAgrees) {
  const auto entry = scheme_registry().front();  // registry returns by value
  const auto scheme = entry.make();
  Rng rng(7);
  const Graph no = entry.family.no_instance(16, rng);
  EXPECT_FALSE(attack_soundness(*scheme, no, nullptr, rng).has_value());
}

}  // namespace
}  // namespace lcert
