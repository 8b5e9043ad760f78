// Prover-pipeline throughput: seed serial assign() versus the batch prover
// (level-synchronized, arena-backed) with and without the hash-consed subtree
// certificate cache. Backs BENCH_prove.json (bench/run_prove_bench.sh).
//
// The seed baseline is the untouched find_accepting_run/assign() path; the
// batch rows go through prove_assignment, whose output is pinned bit-identical
// to the baseline by tests/test_prover_pipeline.cpp — so every speedup here is
// pure work saved, not work changed.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "src/cert/engine.hpp"
#include "src/cert/prove.hpp"
#include "src/graph/generators.hpp"
#include "src/obs/report.hpp"
#include "src/schemes/mso_tree.hpp"
#include "src/schemes/spanning_tree.hpp"
#include "src/schemes/treedepth_scheme.hpp"
#include "src/solve/solver.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace lcert;

// One MSO-on-trees bench family: which automaton to run and how to build a
// yes-instance of ~n vertices. The four families span the memo spectrum:
// path (all subtrees distinct — worst case for the cache), caterpillar
// (legs collapse, spine does not), complete-binary (everything collapses:
// ~log n distinct shapes), random-tree (the paper's generic instance).
struct Family {
  const char* name;
  std::size_t automaton;  ///< index into standard_tree_automata()
  Graph (*make)(std::size_t n, Rng& rng);
};

Graph make_path_family(std::size_t n, Rng&) { return make_path(n); }
Graph make_caterpillar_family(std::size_t n, Rng&) {
  return make_caterpillar(std::max<std::size_t>(n / 2, 1), 1);
}
Graph make_complete_binary_family(std::size_t n, Rng&) {
  std::size_t levels = 1;
  while (((std::size_t{1} << (levels + 1)) - 1) <= n) ++levels;
  return make_complete_binary_tree(levels);  // largest 2^L - 1 <= n
}
Graph make_random_tree_family(std::size_t n, Rng& rng) { return make_random_tree(n, rng); }

// standard_tree_automata(): 0=path, 2=caterpillar, 3=max-degree<=3, 7=leaves>=4.
constexpr Family kPath{"path", 0, &make_path_family};
constexpr Family kCaterpillar{"caterpillar", 2, &make_caterpillar_family};
constexpr Family kCompleteBinary{"complete-binary", 3, &make_complete_binary_family};
constexpr Family kRandomTree{"random-tree", 7, &make_random_tree_family};

Graph prepare_instance(const Family& fam, std::size_t n) {
  Rng rng(11);
  Graph g = fam.make(n, rng);
  assign_random_ids(g, rng);
  return g;
}

void set_items(benchmark::State& state, std::size_t n) {
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}

// Seed path: one serial assign() — find_accepting_run plus per-vertex heap
// BitWriters — per round.
void BM_ProveSeedSerial(benchmark::State& state, Family fam) {
  const MsoTreeScheme scheme(standard_tree_automata()[fam.automaton]);
  const Graph g = prepare_instance(fam, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    auto certs = scheme.assign(g);
    benchmark::DoNotOptimize(certs);
  }
  set_items(state, g.vertex_count());
}

void run_batch(benchmark::State& state, const Family& fam, std::size_t threads,
               bool memoize) {
  const MsoTreeScheme scheme(standard_tree_automata()[fam.automaton]);
  const Graph g = prepare_instance(fam, static_cast<std::size_t>(state.range(0)));
  RunOptions options;
  options.num_threads = threads;
  options.memoize = memoize;
  for (auto _ : state) {
    auto result = prove_assignment(scheme, g, options);
    benchmark::DoNotOptimize(result.certificates);
  }
  set_items(state, g.vertex_count());
}

void BM_ProveBatchSerialNoMemo(benchmark::State& state, Family fam) {
  run_batch(state, fam, 1, false);
}
void BM_ProveBatchSerial(benchmark::State& state, Family fam) {
  run_batch(state, fam, 1, true);
}
void BM_ProveBatchParallel(benchmark::State& state, Family fam) {
  run_batch(state, fam, 0, true);  // 0 = auto worker count, memo on
}

// E18: per-backend decision latency on the cliff shape (random-tree is where
// feasibility queries dominate, so backend differences show up undiluted).
// Serial, memo off — every vertex pays its own decisions.
void run_batch_solver(benchmark::State& state, const Family& fam, solve::Backend solver) {
  const MsoTreeScheme scheme(standard_tree_automata()[fam.automaton]);
  const Graph g = prepare_instance(fam, static_cast<std::size_t>(state.range(0)));
  RunOptions options;
  options.num_threads = 1;
  options.memoize = false;
  options.solver = solver;
  for (auto _ : state) {
    auto result = prove_assignment(scheme, g, options);
    benchmark::DoNotOptimize(result.certificates);
  }
  set_items(state, g.vertex_count());
}

void BM_ProveSolverGreedy(benchmark::State& state) {
  run_batch_solver(state, kRandomTree, solve::Backend::kGreedy);
}
void BM_ProveSolverColdFlow(benchmark::State& state) {
  run_batch_solver(state, kRandomTree, solve::Backend::kColdFlow);
}
void BM_ProveSolverSat(benchmark::State& state) {
  run_batch_solver(state, kRandomTree, solve::Backend::kSat);
}
BENCHMARK(BM_ProveSolverGreedy)->Arg(1024)->Arg(4096);
BENCHMARK(BM_ProveSolverColdFlow)->Arg(1024)->Arg(4096);
BENCHMARK(BM_ProveSolverSat)->Arg(1024)->Arg(4096);

#define LCERT_PROVE_FAMILY(family, ...)                                    \
  BENCHMARK_CAPTURE(BM_ProveSeedSerial, family, k##family)__VA_ARGS__;     \
  BENCHMARK_CAPTURE(BM_ProveBatchSerialNoMemo, family, k##family)          \
  __VA_ARGS__;                                                             \
  BENCHMARK_CAPTURE(BM_ProveBatchSerial, family, k##family)__VA_ARGS__;    \
  BENCHMARK_CAPTURE(BM_ProveBatchParallel, family, k##family)__VA_ARGS__

LCERT_PROVE_FAMILY(Path, ->Arg(1024)->Arg(4096)->Arg(16384));
LCERT_PROVE_FAMILY(Caterpillar, ->Arg(1024)->Arg(4096)->Arg(16384));
LCERT_PROVE_FAMILY(CompleteBinary, ->Arg(1024)->Arg(4096)->Arg(16384));
LCERT_PROVE_FAMILY(RandomTree, ->Arg(1024)->Arg(4096)->Arg(16384));

// ---------------------------------------------------------------------------
// Non-MSO hot provers: treedepth cores (batch fragment construction + arena
// encode) and the spanning-tree parity certificates (arena encode only).
// ---------------------------------------------------------------------------

void run_treedepth(benchmark::State& state, bool batch) {
  Rng rng(12);
  auto inst =
      make_bounded_treedepth_graph(static_cast<std::size_t>(state.range(0)), 5, 0.3, rng);
  RootedTree witness = inst.elimination_tree;
  const TreedepthScheme scheme(5, [witness](const Graph&) { return witness; });
  RunOptions options;
  options.num_threads = batch ? 0 : 1;
  for (auto _ : state) {
    if (batch) {
      auto result = prove_assignment(scheme, inst.graph, options);
      benchmark::DoNotOptimize(result.certificates);
    } else {
      auto certs = scheme.assign(inst.graph);
      benchmark::DoNotOptimize(certs);
    }
  }
  set_items(state, inst.graph.vertex_count());
}

void BM_ProveTreedepthSeed(benchmark::State& state) { run_treedepth(state, false); }
BENCHMARK(BM_ProveTreedepthSeed)->Arg(1024)->Arg(4096);
void BM_ProveTreedepthBatch(benchmark::State& state) { run_treedepth(state, true); }
BENCHMARK(BM_ProveTreedepthBatch)->Arg(1024)->Arg(4096);

void run_spanning(benchmark::State& state, bool batch) {
  Rng rng(13);
  std::size_t n = static_cast<std::size_t>(state.range(0));
  if (n % 2 != 0) ++n;  // parity scheme needs a yes-instance
  Graph g = make_random_tree(n, rng);
  assign_random_ids(g, rng);
  const VertexParityScheme scheme;
  RunOptions options;
  options.num_threads = batch ? 0 : 1;
  for (auto _ : state) {
    if (batch) {
      auto result = prove_assignment(scheme, g, options);
      benchmark::DoNotOptimize(result.certificates);
    } else {
      auto certs = scheme.assign(g);
      benchmark::DoNotOptimize(certs);
    }
  }
  set_items(state, g.vertex_count());
}

void BM_ProveSpanningSeed(benchmark::State& state) { run_spanning(state, false); }
BENCHMARK(BM_ProveSpanningSeed)->Arg(1024)->Arg(4096)->Arg(16384);
void BM_ProveSpanningBatch(benchmark::State& state) { run_spanning(state, true); }
BENCHMARK(BM_ProveSpanningBatch)->Arg(1024)->Arg(4096)->Arg(16384);

// One timed prove_assignment per configuration for the structured record
// (the google-benchmark numbers above stay authoritative; these rows feed
// the shared obs::Report artifact, including the memo counters that the
// JSON bench output cannot carry).
void add_prove_record(obs::Report& report, const Family& fam, std::size_t n,
                      std::size_t threads, bool memoize, const char* mode,
                      solve::Backend solver = solve::kDefaultBackend) {
  const MsoTreeScheme scheme(standard_tree_automata()[fam.automaton]);
  const Graph g = prepare_instance(fam, n);
  RunOptions options;
  options.num_threads = threads;
  options.memoize = memoize;
  options.solver = solver;
  const std::size_t rounds = 5;
  std::size_t hits = 0;
  std::size_t misses = 0;
  solve::DecisionCounts feas;
  const obs::StopwatchMs timer;
  for (std::size_t i = 0; i < rounds; ++i) {
    const ProveResult result = prove_assignment(scheme, g, options);
    if (!result.certificates.has_value()) throw std::logic_error("bench: prover refused");
    hits = result.memo_hits;
    misses = result.memo_misses;
    feas = result.feas;
  }
  const double wall_ms = timer.elapsed();
  report.add()
      .set("scheme", scheme.name())
      .set("family", fam.name)
      .set("mode", mode)
      .set("solver", solve::backend_name(solver))
      .set("n", g.vertex_count())
      .set("wall_ms_per_round", wall_ms / rounds)
      .set("memo_hits", hits)
      .set("memo_misses", misses)
      .set("feas_pruned", feas.pruned)
      .set("feas_greedy", feas.greedy)
      .set("feas_warm", feas.warm)
      .set("feas_flow", feas.flow)
      .set("feas_sat", feas.sat);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip --metrics-out / LCERT_METRICS before google-benchmark sees argv.
  auto report = obs::Report::from_cli("E14-prove-throughput", argc, argv);

  // Our own flags, stripped before google-benchmark parses argv:
  //   --family <name>   restrict the structured record rows to one family
  //   --record-n <n>    instance size of the record rows (default 4096)
  // Unknown family names exit 2 with the listing, matching lcert_cli.
  std::vector<Family> record_families = {kCompleteBinary, kRandomTree};
  std::size_t record_n = 4096;
  {
    const Family kAll[] = {kPath, kCaterpillar, kCompleteBinary, kRandomTree};
    int out = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--family" && i + 1 < argc) {
        const std::string name = argv[++i];
        record_families.clear();
        for (const Family& f : kAll)
          if (name == f.name) record_families.push_back(f);
        if (record_families.empty()) {
          std::fprintf(stderr, "error: unknown family '%s'; valid families:\n",
                       name.c_str());
          for (const Family& f : kAll) std::fprintf(stderr, "  %s\n", f.name);
          return 2;
        }
      } else if (flag == "--record-n" && i + 1 < argc) {
        record_n = std::stoul(argv[++i]);
      } else {
        argv[out++] = argv[i];
      }
    }
    argc = out;
  }

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  for (const Family& fam : record_families) {
    add_prove_record(report, fam, record_n, 1, false, "serial-no-memo");
    add_prove_record(report, fam, record_n, 1, true, "serial-memo");
    add_prove_record(report, fam, record_n, 0, true, "parallel-memo");
    // E18 rows: one serial memo-off round per backend, same instance, so the
    // wall_ms_per_round column is a direct decision-latency comparison.
    for (const auto& info : solve::SolverFactory::registry())
      add_prove_record(report, fam, record_n, 1, false, "solver-compare", info.backend);
  }
  report.note("");
  report.note("micro numbers above are google-benchmark's; the table rows re-measure one");
  report.note("prove_assignment round (5x) with memo + solver decision counters for");
  report.note("the structured artifact; mode=solver-compare rows are the E18 recipe.");
  return report.finish();
}
