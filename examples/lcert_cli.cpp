// lcert_cli — run any registered certification scheme on a graph.
//
//   lcert_cli list                          # available schemes
//   lcert_cli demo <scheme> [n]             # generate a yes-instance, certify it
//   lcert_cli run  <scheme> <file|->        # certify a graph in edge-list format
//   lcert_cli audit <scheme|all> [n]        # completeness + the per-strategy
//                                           # soundness attack plan (random,
//                                           # empty, replay, bit-flip, SAT-
//                                           # guided run search)
//   lcert_cli prove <scheme> [n] [--threads T] [--no-memo]
//                   [--family F] [--solver S]
//                                           # batch prover: wall time split
//                                           # into generate+ids / prove /
//                                           # verify / total, memo and
//                                           # solver decision stats. --family
//                                           # swaps the instance shape (path,
//                                           # caterpillar, complete-binary,
//                                           # random-tree) for the scheme's
//                                           # default yes-instance; --solver
//                                           # picks the feasibility backend
//                                           # (greedy|cold-flow|sat)
//   lcert_cli fuzz <scheme|all> [flags]     # differential fuzzing campaign
//   lcert_cli apply-edit <scheme> <file|-> <spec>... [--threads T] [--check]
//                                           # certify a graph, then stream
//                                           # textual edits through the
//                                           # incremental layer; per-edit
//                                           # stats on stdout
//   lcert_cli watch <scheme> [n] [--family F] [--edits K] [--seed S]
//                   [--threads T] [--check]
//                                           # random streaming-edit workload:
//                                           # amortized cost per edit vs the
//                                           # cold full re-prove (the CI
//                                           # incremental-smoke driver)
//   lcert_cli dot  <file|->                 # print the graph as Graphviz DOT
//
// fuzz flags:
//   --trials N        trial-count mode, deterministic across thread counts
//   --time-budget S   wall-clock mode (seconds); overrides --trials
//   --seed S          campaign seed (default 1)
//   --threads T       worker threads (default auto; capped at the hardware
//                     thread count)
//   --base-n N        base instance size (default 12)
//   --replay T        re-run exactly one trial index and report it
//   --out DIR         write <scheme>-trial<T>.lcg + .repro.txt per finding
//   --solver S        feasibility backend for the incremental re-proves (the
//                     solver-divergence oracle sweeps all backends anyway)
//
// edit spec grammar (apply-edit): graft:U[:ID] | prune:V | swap:M:OP:NP |
// edge-add:U:V | edge-del:U:V | permute:SEED — vertex indices refer to the
// graph as it stands when the edit applies (prune renumbers: v > pruned
// shifts down by one). swap deletes edge {M, OP} and inserts {M, NP}.
// --check cross-checks every edit against a cold full re-prove
// (bit-identity, the same oracle the fuzzer runs).
//
// Every subcommand accepts --metrics-out <file> (or the LCERT_METRICS env
// var) to dump the obs metrics/trace artifact as JSON (.csv for CSV), and
// --trace-out <file> (or LCERT_TRACE) to record a Chrome trace-event
// timeline (chrome://tracing / Perfetto). An unwritable artifact path is
// rejected up front with exit code 2.
// Edge-list format: see src/graph/io.hpp.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <thread>

#include "src/cert/audit.hpp"
#include "src/cert/engine.hpp"
#include "src/cert/prove.hpp"
#include "src/fuzz/campaign.hpp"
#include "src/fuzz/mutators.hpp"
#include "src/graph/edit.hpp"
#include "src/graph/generators.hpp"
#include "src/graph/io.hpp"
#include "src/incr/incremental.hpp"
#include "src/logic/eval.hpp"
#include "src/obs/report.hpp"
#include "src/obs/trace.hpp"
#include "src/schemes/registry.hpp"
#include "src/solve/backend.hpp"
#include "src/util/rng.hpp"

namespace {

using namespace lcert;

Graph load(const std::string& path) {
  if (path == "-") return parse_edge_list(std::cin);
  std::ifstream in(path);
  if (!in) throw std::invalid_argument("cannot open " + path);
  return parse_edge_list(in);
}

/// Non-throwing lookup front end: unknown keys list the valid ones on stderr
/// (exit code 2 at the call site) instead of an uncaught exception.
const RegisteredScheme* lookup(const std::string& key) {
  const RegisteredScheme* entry = try_find_scheme(key);
  if (entry == nullptr) {
    std::fprintf(stderr, "error: unknown scheme '%s'; valid keys:\n", key.c_str());
    for (const auto& e : scheme_registry())
      std::fprintf(stderr, "  %s\n", e.key.c_str());
  }
  return entry;
}

/// A --threads value, capped at the machine's hardware threads (0 stays
/// auto). The library honours an explicit count up to the item count, so an
/// uncapped flag could start a thread per vertex.
std::size_t parse_threads(const std::string& value) {
  const unsigned hw = std::thread::hardware_concurrency();
  return std::min<std::size_t>(std::stoul(value), std::max(1u, hw));
}

/// Non-throwing solver lookup, same contract as lookup() above: unknown names
/// list the valid backends on stderr, exit code 2 at the call site.
std::optional<solve::Backend> lookup_solver(const std::string& name) {
  const auto backend = solve::parse_backend(name);
  if (!backend.has_value())
    std::fprintf(stderr, "error: unknown solver '%s'; valid solvers: %s\n",
                 name.c_str(), solve::backend_listing().c_str());
  return backend;
}

int run_scheme_on(const RegisteredScheme& entry, const Graph& g) {
  const auto scheme = entry.make();
  std::printf("scheme:   %s (%s)\n", entry.key.c_str(), entry.description.c_str());
  std::printf("instance: n=%zu m=%zu\n", g.vertex_count(), g.edge_count());
  bool truth;
  try {
    truth = scheme->holds(g);
  } catch (const std::exception& e) {
    std::printf("ground truth unavailable: %s\n", e.what());
    return 2;
  }
  std::printf("property holds: %s\n", truth ? "yes" : "no");
  const auto certs = scheme->assign(g);
  if (!certs.has_value()) {
    std::printf("prover: refuses (%s)\n",
                truth ? "BUG: completeness violated" : "as expected on a no-instance");
    return truth ? 1 : 0;
  }
  const auto outcome = verify_assignment(*scheme, g, *certs);
  std::printf("prover: assigned certificates, max %zu bits/vertex (total %zu)\n",
              outcome.max_certificate_bits, outcome.total_certificate_bits);
  std::printf("verification: %s\n",
              outcome.all_accept ? "all vertices accept" : "SOME VERTEX REJECTS (bug)");
  return outcome.all_accept && truth ? 0 : 1;
}

// Completeness check plus the full per-strategy soundness attack plan on
// generated instances, reported through the shared obs pipeline: audit/*
// counters say how many trials each attack family executed, prover/*
// histograms where the honest certificate sizes landed. Prints one row per
// AttackOutcome so "no forgery" is attributable: which strategies applied,
// how much of their budget they spent, and — for the SAT-guided run search —
// whether every rooting was exhausted (a completeness statement for that
// forgery family).
int audit_scheme(const RegisteredScheme& entry, std::size_t n, obs::Report& report) {
  const auto scheme = entry.make();
  Rng rng(42);
  std::printf("scheme:   %s (%s)\n", entry.key.c_str(), entry.description.c_str());

  const Graph yes = entry.family.yes_instance(n, rng);
  require_complete(*scheme, yes);
  const auto tmpl = scheme->assign(yes);
  std::printf("completeness: ok on a yes-instance with n=%zu\n", yes.vertex_count());

  const Graph no = entry.family.no_instance(n, rng);
  const SoundnessAuditReport audit =
      run_soundness_audit(*scheme, no, tmpl ? &*tmpl : nullptr, rng, RunOptions{});
  std::printf("soundness attack plan (no-instance n=%zu):\n", no.vertex_count());
  for (const AttackOutcome& out : audit.outcomes) {
    const char* status =
        out.forged ? "FORGED" : (out.applicable ? "no forgery" : "skipped");
    std::printf("  %-16s trials %3zu/%-3zu %-10s %s\n", out.strategy.c_str(),
                out.trials, out.budget, status, out.detail.c_str());
  }
  if (audit.forgery.has_value()) {
    std::printf("soundness: FORGED via '%s' attack on n=%zu — scheme is unsound\n",
                audit.forgery->attack.c_str(), no.vertex_count());
  } else {
    std::printf("soundness: every strategy exhausted without a forgery (n=%zu)\n",
                no.vertex_count());
  }

  report.add()
      .set("scheme", entry.key)
      .set("n", yes.vertex_count())
      .set("complete", "yes")
      .set("forged", audit.forgery.has_value() ? audit.forgery->attack : "no");
  return audit.forgery.has_value() ? 1 : 0;
}

// `audit <scheme|all> [n]`: per-scheme audit, or the whole registry (the CI
// solver-audit-smoke job runs `audit all` so the SAT forgery search sweeps
// every scheme's no-instances).
int audit_command(const std::vector<std::string>& args, obs::Report& report) {
  std::size_t n = 24;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--metrics-out" || flag == "--trace-out") {
      ++i;  // consumed by obs::Report::from_cli
    } else if (!flag.empty() && flag[0] != '-') {
      n = std::stoul(flag);
    } else {
      throw std::invalid_argument("unknown audit flag '" + flag + "'");
    }
  }
  int rc = 0;
  if (args[1] == "all") {
    for (const auto& entry : scheme_registry()) {
      rc = std::max(rc, audit_scheme(entry, n, report));
      std::printf("\n");
    }
  } else {
    const RegisteredScheme* entry = lookup(args[1]);
    if (entry == nullptr) return 2;
    rc = audit_scheme(*entry, n, report);
    std::printf("\n");
  }
  report.print_metrics();
  return rc;
}

// Named instance shapes for `prove --family`, mirroring the bench harness
// (bench_prove_throughput.cpp) so the RandomTree prover cliff reproduces from
// the CLI: `lcert_cli prove mso-leaves4 4096 --family random-tree`.
struct ShapeFamily {
  const char* name;
  Graph (*make)(std::size_t n, Rng& rng);
};

Graph shape_path(std::size_t n, Rng&) { return make_path(std::max<std::size_t>(n, 2)); }
Graph shape_caterpillar(std::size_t n, Rng&) {
  return make_caterpillar(std::max<std::size_t>(n / 2, 1), 1);
}
Graph shape_complete_binary(std::size_t n, Rng&) {
  std::size_t levels = 1;
  while (((std::size_t{1} << (levels + 1)) - 1) <= n) ++levels;
  return make_complete_binary_tree(levels);  // largest 2^L - 1 <= n
}
Graph shape_random_tree(std::size_t n, Rng& rng) { return make_random_tree(n, rng); }

constexpr ShapeFamily kShapeFamilies[] = {
    {"path", &shape_path},
    {"caterpillar", &shape_caterpillar},
    {"complete-binary", &shape_complete_binary},
    {"random-tree", &shape_random_tree},
};

/// Non-throwing shape lookup, same contract as lookup() above: unknown names
/// list the valid ones on stderr, exit code 2 at the call site.
const ShapeFamily* lookup_shape(const std::string& name) {
  for (const ShapeFamily& f : kShapeFamilies)
    if (name == f.name) return &f;
  std::fprintf(stderr, "error: unknown family '%s'; valid families:\n", name.c_str());
  for (const ShapeFamily& f : kShapeFamilies) std::fprintf(stderr, "  %s\n", f.name);
  return nullptr;
}

// Run the batch prover on a generated yes-instance, verify the output, and
// report wall time (instance generation with IDs, prove, verify, total) plus
// the memo and solver decision counters — the CLI face of prove_assignment.
int prove_command(const std::vector<std::string>& args, obs::Report& report) {
  const RegisteredScheme* entry = lookup(args[1]);
  if (entry == nullptr) return 2;
  std::size_t n = 1024;
  RunOptions options;
  const ShapeFamily* shape = nullptr;
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--metrics-out" || flag == "--trace-out") {
      ++i;  // consumed by obs::Report::from_cli
    } else if (flag == "--threads") {
      if (i + 1 >= args.size()) throw std::invalid_argument("missing value for --threads");
      options.num_threads = parse_threads(args[++i]);
    } else if (flag == "--no-memo") {
      options.memoize = false;
    } else if (flag == "--family") {
      if (i + 1 >= args.size()) throw std::invalid_argument("missing value for --family");
      shape = lookup_shape(args[++i]);
      if (shape == nullptr) return 2;
    } else if (flag == "--solver") {
      if (i + 1 >= args.size()) throw std::invalid_argument("missing value for --solver");
      const auto backend = lookup_solver(args[++i]);
      if (!backend.has_value()) return 2;
      options.solver = *backend;
    } else if (!flag.empty() && flag[0] != '-') {
      n = std::stoul(flag);
    } else {
      throw std::invalid_argument("unknown prove flag '" + flag + "'");
    }
  }

  using Clock = std::chrono::steady_clock;
  const auto ms_since = [](Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  };
  static const std::uint32_t trace_generate = obs::trace_sink().name_id("graph/generate");
  static const std::uint32_t trace_verify =
      obs::trace_sink().name_id("engine/verify_assignment");
  const auto scheme = entry->make();
  const auto run_start = Clock::now();
  Rng rng(42);
  Graph g;
  {
    const obs::TraceSpan span(trace_generate);
    g = shape == nullptr ? entry->family.yes_instance(n, rng) : shape->make(n, rng);
    if (shape != nullptr) assign_random_ids(g, rng);
  }
  const double generate_ms = ms_since(run_start);
  std::printf("scheme:   %s (%s)\n", entry->key.c_str(), entry->description.c_str());
  std::printf("instance: %s n=%zu m=%zu, threads=%zu, memo=%s, solver=%s\n",
              shape == nullptr ? "yes-instance" : shape->name, g.vertex_count(),
              g.edge_count(), options.num_threads, options.memoize ? "on" : "off",
              solve::backend_name(options.solver));

  const auto prove_start = Clock::now();
  const ProveResult result = prove_assignment(*scheme, g, options);
  const double ms = ms_since(prove_start);
  if (!result.certificates.has_value()) {
    std::printf(shape == nullptr
                    ? "prover: refuses (BUG: family generated a no-instance?)\n"
                    : "prover: refuses (the --family shape is a no-instance here)\n");
    return 1;
  }
  const auto verify_start = Clock::now();
  VerificationOutcome outcome;
  {
    const obs::TraceSpan span(trace_verify);
    outcome = verify_assignment(*scheme, g, *result.certificates, options);
  }
  const double verify_ms = ms_since(verify_start);
  const double total_ms = ms_since(run_start);
  std::printf("prover: %.3f ms, memo hits %zu / misses %zu\n", ms, result.memo_hits,
              result.memo_misses);
  std::printf(
      "solver decisions: pruned %llu / greedy %llu / warm %llu / flow %llu / sat %llu\n",
      static_cast<unsigned long long>(result.feas.pruned),
      static_cast<unsigned long long>(result.feas.greedy),
      static_cast<unsigned long long>(result.feas.warm),
      static_cast<unsigned long long>(result.feas.flow),
      static_cast<unsigned long long>(result.feas.sat));
  std::printf("certificates: max %zu bits/vertex (total %zu)\n",
              outcome.max_certificate_bits, outcome.total_certificate_bits);
  std::printf("verification: %s\n",
              outcome.all_accept ? "all vertices accept" : "SOME VERTEX REJECTS (bug)");
  std::printf("wall time: generate+ids %.3f ms, prove %.3f ms, verify %.3f ms, total %.3f ms\n",
              generate_ms, ms, verify_ms, total_ms);

  report.add()
      .set("scheme", entry->key)
      .set("n", g.vertex_count())
      .set("threads", options.num_threads)
      .set("memo", options.memoize ? "on" : "off")
      .set("family", shape == nullptr ? "yes-instance" : shape->name)
      .set("solver", solve::backend_name(options.solver))
      .set("generate_ms", generate_ms)
      .set("prove_ms", ms)
      .set("verify_ms", verify_ms)
      .set("total_ms", total_ms)
      .set("memo_hits", result.memo_hits)
      .set("memo_misses", result.memo_misses)
      .set("feas_pruned", result.feas.pruned)
      .set("feas_greedy", result.feas.greedy)
      .set("feas_warm", result.feas.warm)
      .set("feas_flow", result.feas.flow)
      .set("feas_sat", result.feas.sat)
      .set("max_bits", outcome.max_certificate_bits);
  std::printf("\n");
  report.print_metrics();
  return outcome.all_accept ? 0 : 1;
}

struct FuzzCliOptions {
  fuzz::CampaignOptions campaign;
  std::optional<std::size_t> replay;
  std::string out_dir;
};

/// Parses the fuzz flags starting at args[from]; throws std::invalid_argument
/// on a malformed flag.
FuzzCliOptions parse_fuzz_flags(const std::vector<std::string>& args, std::size_t from) {
  FuzzCliOptions out;
  for (std::size_t i = from; i < args.size(); ++i) {
    const std::string& flag = args[i];
    // --metrics-out/--trace-out are consumed by obs::Report::from_cli.
    if (flag == "--metrics-out" || flag == "--trace-out") {
      ++i;
      continue;
    }
    const auto value = [&]() -> const std::string& {
      if (i + 1 >= args.size())
        throw std::invalid_argument("missing value for " + flag);
      return args[++i];
    };
    if (flag == "--trials") out.campaign.trials = std::stoul(value());
    else if (flag == "--time-budget") out.campaign.time_budget_s = std::stod(value());
    else if (flag == "--seed") out.campaign.seed = std::stoull(value());
    else if (flag == "--threads") out.campaign.num_threads = parse_threads(value());
    else if (flag == "--base-n") out.campaign.base_n = std::stoul(value());
    else if (flag == "--replay") out.replay = std::stoul(value());
    else if (flag == "--out") out.out_dir = value();
    else if (flag == "--solver") {
      // Drives the incremental-divergence re-proves; the solver-divergence
      // oracle still sweeps every registered backend regardless.
      const auto backend = solve::parse_backend(value());
      if (!backend.has_value())
        throw std::invalid_argument(std::string("unknown solver; valid solvers: ") +
                                    solve::backend_listing());
      out.campaign.attack.solver = *backend;
    }
    else throw std::invalid_argument("unknown fuzz flag '" + flag + "'");
  }
  return out;
}

void write_finding_artifacts(const fuzz::Finding& finding, const std::string& scheme_key,
                             const std::string& out_dir) {
  const std::string stem = out_dir + "/" + scheme_key + "-trial" +
                           std::to_string(finding.trial);
  save_graph(finding.graph, stem + ".lcg");
  std::ofstream snippet(stem + ".repro.txt");
  if (!snippet) throw std::runtime_error("cannot write " + stem + ".repro.txt");
  snippet << fuzz::repro_snippet(finding, scheme_key);
  std::printf("  wrote %s.lcg and %s.repro.txt\n", stem.c_str(), stem.c_str());
}

int fuzz_one(const RegisteredScheme& entry, const FuzzCliOptions& cli,
             obs::Report& report) {
  const auto scheme = entry.make();
  const fuzz::CampaignResult result =
      cli.replay.has_value()
          ? fuzz::replay_trial(*scheme, entry.family, cli.campaign, *cli.replay)
          : fuzz::run_campaign(*scheme, entry.family, cli.campaign);

  const double rate =
      result.stats.seconds > 0 ? result.stats.trials_run / result.stats.seconds : 0;
  std::printf("scheme: %s\n", entry.key.c_str());
  std::printf(
      "  trials: %zu run, %zu skipped (%zu yes / %zu no), %.2fs, %.0f trials/s\n",
      result.stats.trials_run, result.stats.trials_skipped, result.stats.yes_instances,
      result.stats.no_instances, result.stats.seconds, rate);
  for (const fuzz::Finding& f : result.findings) {
    std::printf("  FINDING trial=%zu seed=%llu oracle=%s\n    %s\n", f.trial,
                static_cast<unsigned long long>(f.seed),
                fuzz::oracle_name(f.oracle).c_str(), f.detail.c_str());
    std::printf("    shrunk n=%zu m=%zu (from n=%zu, %zu steps)\n",
                f.graph.vertex_count(), f.graph.edge_count(),
                f.original.vertex_count(), f.shrink_steps);
    if (!cli.out_dir.empty()) write_finding_artifacts(f, entry.key, cli.out_dir);
  }

  report.add()
      .set("scheme", entry.key)
      .set("trials", result.stats.trials_run)
      .set("skipped", result.stats.trials_skipped)
      .set("findings", result.findings.size())
      .set("seconds", result.stats.seconds)
      .set("trials_per_s", rate);
  return result.findings.empty() ? 0 : 1;
}

int fuzz_command(const std::vector<std::string>& args, obs::Report& report) {
  const FuzzCliOptions cli = parse_fuzz_flags(args, 2);
  int rc = 0;
  if (args[1] == "all") {
    for (const auto& entry : scheme_registry())
      rc = std::max(rc, fuzz_one(entry, cli, report));
  } else {
    const RegisteredScheme* entry = lookup(args[1]);
    if (entry == nullptr) return 2;
    rc = fuzz_one(*entry, cli, report);
  }
  std::printf("\n");
  report.print_metrics();
  return rc;
}

// --- incremental recertification subcommands (DESIGN.md §13) ---------------

/// Parses one textual edit spec against the graph it will apply to. Grammar
/// (see the header comment): graft:U[:ID] | prune:V | swap:M:OP:NP |
/// edge-add:U:V | edge-del:U:V | permute:SEED. Throws std::invalid_argument
/// on malformed specs; apply() rejects specs that are well-formed but illegal
/// on the current graph.
GraphEdit parse_edit_spec(const std::string& spec, const Graph& g) {
  std::vector<std::string> parts;
  std::size_t start = 0;
  while (true) {
    const std::size_t colon = spec.find(':', start);
    parts.push_back(spec.substr(start, colon - start));
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  const auto arity = [&](std::size_t lo, std::size_t hi) {
    if (parts.size() < lo || parts.size() > hi)
      throw std::invalid_argument("malformed edit spec '" + spec + "'");
  };
  const auto num = [&](std::size_t i) -> std::uint64_t {
    std::size_t used = 0;
    const std::uint64_t value = std::stoull(parts[i], &used);
    if (used != parts[i].size())
      throw std::invalid_argument("malformed number in edit spec '" + spec + "'");
    return value;
  };

  const std::string& kind = parts[0];
  if (kind == "graft") {
    arity(2, 3);
    GraphEdit edit;
    edit.kind = EditKind::kLeafGraft;
    edit.a = num(1);
    if (parts.size() == 3) {
      edit.fresh_id = num(2);
    } else {
      // Default fresh ID: one past the current maximum, always distinct.
      VertexId max_id = 0;
      for (Vertex v = 0; v < g.vertex_count(); ++v)
        max_id = std::max(max_id, g.id(v));
      edit.fresh_id = max_id + 1;
    }
    return edit;
  }
  if (kind == "prune") {
    arity(2, 2);
    GraphEdit edit;
    edit.kind = EditKind::kLeafPrune;
    edit.a = num(1);
    return edit;
  }
  if (kind == "swap") {
    arity(4, 4);
    GraphEdit edit;
    edit.kind = EditKind::kSubtreeSwap;
    edit.a = num(1);   // moved subtree root
    edit.c = num(2);   // old parent
    edit.b = num(3);   // new parent
    return edit;
  }
  if (kind == "edge-add" || kind == "edge-del") {
    arity(3, 3);
    GraphEdit edit;
    edit.kind = kind == "edge-add" ? EditKind::kEdgeAdd : EditKind::kEdgeDelete;
    edit.a = num(1);
    edit.b = num(2);
    return edit;
  }
  if (kind == "permute") {
    arity(2, 2);
    GraphEdit edit;
    edit.kind = EditKind::kIdPermute;
    edit.ids.reserve(g.vertex_count());
    for (Vertex v = 0; v < g.vertex_count(); ++v) edit.ids.push_back(g.id(v));
    Rng rng(num(1));
    rng.shuffle(edit.ids);
    return edit;
  }
  throw std::invalid_argument("unknown edit kind '" + kind + "' in spec '" + spec +
                              "' (valid: graft prune swap edge-add edge-del permute)");
}

void print_edit_stats(std::size_t step, const GraphEdit& edit,
                      const IncrementalStats& st) {
  std::printf("edit %zu: %s\n", step, to_string(edit).c_str());
  std::printf(
      "  %s, %s, dirty-path %zu, re-proved %zu, re-verified %zu, "
      "changed certs %zu, reuse %.3f, memo %zu/%zu\n",
      st.certified ? "certified" : "NOT CERTIFIABLE",
      st.full_reprove ? "full re-prove" : "incremental",
      st.dirty_path_len, st.reproved_vertices, st.reverified_vertices,
      st.changed_certificates, st.reuse_ratio, st.memo_hits, st.memo_misses);
}

/// --check body shared by apply-edit and watch: the live certificates must be
/// bit-identical to a cold full re-prove of the accumulated graph, and the
/// changed slice must have re-verified cleanly.
bool edits_check_clean(const Scheme& scheme, const incr::CertifiedInstance& live,
                       const Graph& expected, const RunOptions& options,
                       const IncrementalStats& st) {
  const auto cold = prove_assignment(scheme, expected, options).certificates;
  const auto& ours = live.certificates();
  if (ours.has_value() != cold.has_value() || (ours.has_value() && !(*ours == *cold))) {
    std::printf("  CHECK FAILED: diverged from a cold full re-prove\n");
    return false;
  }
  if (!st.reverify_clean) {
    std::printf("  CHECK FAILED: re-verification of the changed slice rejected\n");
    return false;
  }
  return true;
}

int apply_edit_command(const std::vector<std::string>& args, obs::Report& report) {
  const RegisteredScheme* entry = lookup(args[1]);
  if (entry == nullptr) return 2;
  RunOptions options;
  bool check = false;
  std::vector<std::string> specs;
  for (std::size_t i = 3; i < args.size(); ++i) {
    const std::string& arg = args[i];
    if (arg == "--metrics-out" || arg == "--trace-out") {
      ++i;  // consumed by obs::Report::from_cli
    } else if (arg == "--threads") {
      if (i + 1 >= args.size()) throw std::invalid_argument("missing value for --threads");
      options.num_threads = parse_threads(args[++i]);
    } else if (arg == "--check") {
      check = true;
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      throw std::invalid_argument("unknown apply-edit flag '" + arg + "'");
    } else {
      specs.push_back(arg);
    }
  }
  if (specs.empty()) throw std::invalid_argument("apply-edit: no edit specs given");

  const auto scheme = entry->make();
  Graph cur = load(args[2]);
  incr::CertifiedInstance live(*scheme, options);
  const auto& init = live.init(cur);
  std::printf("scheme:   %s (%s)\n", entry->key.c_str(), entry->description.c_str());
  std::printf("instance: n=%zu m=%zu, path=%s\n", cur.vertex_count(), cur.edge_count(),
              live.incremental() ? "incremental" : "full-reprove fallback");
  std::printf("init: %s\n", init.has_value() ? "certified" : "not certifiable");

  int rc = 0;
  std::size_t applied = 0;
  for (std::size_t step = 0; step < specs.size(); ++step) {
    const GraphEdit edit = parse_edit_spec(specs[step], cur);
    const IncrementalStats st = live.apply(edit);
    cur = apply_edit(cur, edit);
    ++applied;
    print_edit_stats(step, edit, st);
    if (check && !edits_check_clean(*scheme, live, cur, options, st)) rc = 1;
  }

  const bool certified = live.certificates().has_value();
  std::printf("final: n=%zu, %s\n", cur.vertex_count(),
              certified ? "certified" : "not certifiable");
  report.add()
      .set("scheme", entry->key)
      .set("edits", applied)
      .set("final_n", cur.vertex_count())
      .set("certified", certified ? "yes" : "no")
      .set("check", check ? (rc == 0 ? "pass" : "FAIL") : "off");
  std::printf("\n");
  report.print_metrics();
  return rc;
}

int watch_command(const std::vector<std::string>& args, obs::Report& report) {
  const RegisteredScheme* entry = lookup(args[1]);
  if (entry == nullptr) return 2;
  std::size_t n = 1024;
  std::size_t edits = 64;
  std::uint64_t seed = 1;
  bool check = false;
  RunOptions options;
  const ShapeFamily* shape = nullptr;  // default: the scheme's own yes-instance
  for (std::size_t i = 2; i < args.size(); ++i) {
    const std::string& flag = args[i];
    if (flag == "--metrics-out" || flag == "--trace-out") {
      ++i;  // consumed by obs::Report::from_cli
    } else if (flag == "--family") {
      if (i + 1 >= args.size()) throw std::invalid_argument("missing value for --family");
      shape = lookup_shape(args[++i]);
      if (shape == nullptr) return 2;
    } else if (flag == "--edits") {
      if (i + 1 >= args.size()) throw std::invalid_argument("missing value for --edits");
      edits = std::stoul(args[++i]);
    } else if (flag == "--seed") {
      if (i + 1 >= args.size()) throw std::invalid_argument("missing value for --seed");
      seed = std::stoull(args[++i]);
    } else if (flag == "--threads") {
      if (i + 1 >= args.size()) throw std::invalid_argument("missing value for --threads");
      options.num_threads = parse_threads(args[++i]);
    } else if (flag == "--check") {
      check = true;
    } else if (!flag.empty() && flag[0] != '-') {
      n = std::stoul(flag);
    } else {
      throw std::invalid_argument("unknown watch flag '" + flag + "'");
    }
  }

  const auto scheme = entry->make();
  Rng rng(seed);
  Graph cur = shape == nullptr ? entry->family.yes_instance(n, rng) : shape->make(n, rng);
  if (shape != nullptr) assign_random_ids(cur, rng);
  incr::CertifiedInstance live(*scheme, options);

  const auto t0 = std::chrono::steady_clock::now();
  const auto& init = live.init(cur);
  const double init_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  std::printf("scheme:   %s (%s)\n", entry->key.c_str(), entry->description.c_str());
  std::printf("instance: %s n=%zu m=%zu, threads=%zu, path=%s\n",
              shape == nullptr ? "yes-instance" : shape->name, cur.vertex_count(),
              cur.edge_count(), options.num_threads,
              live.incremental() ? "incremental" : "full-reprove fallback");
  if (!init.has_value()) {
    std::printf("init: the generated instance is not certifiable (pick a family "
                "the scheme certifies, or drop --family for its yes-instance)\n");
    return 1;
  }
  std::printf("init (cold full prove): %.3f ms\n", init_ms);

  const std::vector<fuzz::MutatorKind> kinds = fuzz::tree_preserving_mutators();
  int rc = 0;
  std::size_t applied = 0, full_reproves = 0, rejected_draws = 0;
  std::size_t sum_dirty = 0, max_dirty = 0;
  std::size_t sum_reproved = 0, sum_reverified = 0, sum_changed = 0;
  double sum_reuse = 0, edit_seconds = 0;
  std::map<EditKind, std::vector<double>> apply_us;  // per-kind apply latency
  for (std::size_t step = 0; step < edits; ++step) {
    // Drawing the edit is untimed — it is workload generation, not repair.
    // Property-breaking edits are redrawn (the watch workload measures the
    // repair cost on instances that stay certifiable; certified/uncertified
    // transitions are the fuzz oracle's territory). So are edits that take
    // the instance where holds() cannot decide it (std::invalid_argument:
    // outside the promise, or past the exact treedepth solver's size limit),
    // exactly as the fuzz campaign skips such trials.
    std::optional<GraphEdit> edit;
    std::optional<Graph> next;
    for (std::size_t attempt = 0; attempt < 16; ++attempt) {
      edit = fuzz::draw_edit(cur, kinds[rng.index(kinds.size())], rng);
      if (!edit.has_value()) continue;
      next = apply_edit(cur, *edit);
      bool certifiable = false;
      try {
        certifiable = scheme->holds(*next);
      } catch (const std::invalid_argument&) {
      }
      if (certifiable) break;
      ++rejected_draws;
      edit.reset();
    }
    if (!edit.has_value()) continue;

    const auto e0 = std::chrono::steady_clock::now();
    const IncrementalStats st = live.apply(*edit);
    const double apply_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - e0).count();
    edit_seconds += apply_s;
    apply_us[edit->kind].push_back(apply_s * 1e6);
    cur = std::move(*next);
    ++applied;
    if (st.full_reprove) ++full_reproves;
    sum_dirty += st.dirty_path_len;
    max_dirty = std::max(max_dirty, st.dirty_path_len);
    sum_reproved += st.reproved_vertices;
    sum_reverified += st.reverified_vertices;
    sum_changed += st.changed_certificates;
    sum_reuse += st.reuse_ratio;
    if (!st.certified) {
      std::printf("edit %zu (%s): NOT certified although holds() is true (bug)\n",
                  step, to_string(*edit).c_str());
      rc = 1;
      break;
    }
    if (check && !edits_check_clean(*scheme, live, cur, options, st)) {
      std::printf("  at edit %zu (%s)\n", step, to_string(*edit).c_str());
      rc = 1;
      break;
    }
  }

  if (applied == 0) {
    std::printf("no edits applied (every draw came up empty)\n");
    return rc;
  }
  const double us_per_edit = edit_seconds * 1e6 / static_cast<double>(applied);
  const double speedup = us_per_edit > 0 ? init_ms * 1e3 / us_per_edit : 0;
  const double inv = 1.0 / static_cast<double>(applied);
  std::printf("edits: %zu applied (%zu full re-proves, %zu property-breaking draws "
              "redrawn), %.1f us/edit amortized\n",
              applied, full_reproves, rejected_draws, us_per_edit);
  std::printf("speedup vs cold full re-prove: %.1fx\n", speedup);
  obs::Record& record = report.add();
  for (auto& [kind, us] : apply_us) {
    std::sort(us.begin(), us.end());
    const double p50 = us[(us.size() - 1) / 2];
    const std::string label = kind == EditKind::kSubtreeSwap ? "swap"
                              : kind == EditKind::kLeafGraft ? "graft"
                              : kind == EditKind::kLeafPrune ? "prune"
                              : kind == EditKind::kIdPermute ? "permute"
                                                             : edit_name(kind);
    std::printf("  %-7s %6zu edits, apply p50 %.1f us, max %.1f us\n", label.c_str(),
                us.size(), p50, us.back());
    record.set("apply_count_" + label, us.size())
        .set("apply_us_p50_" + label, p50)
        .set("apply_us_max_" + label, us.back());
  }
  std::printf("dirty-path length: mean %.1f, max %zu\n",
              static_cast<double>(sum_dirty) * inv, max_dirty);
  std::printf("re-proved %.1f / re-verified %.1f vertices per edit, "
              "%.1f changed certs per edit, mean reuse ratio %.3f\n",
              static_cast<double>(sum_reproved) * inv,
              static_cast<double>(sum_reverified) * inv,
              static_cast<double>(sum_changed) * inv, sum_reuse * inv);
  if (check) std::printf("check: %s\n", rc == 0 ? "all edits bit-identical to cold" : "FAILED");

  record.set("scheme", entry->key)
      .set("family", shape == nullptr ? "yes-instance" : shape->name)
      .set("n", n)
      .set("edits", applied)
      .set("full_reproves", full_reproves)
      .set("init_ms", init_ms)
      .set("us_per_edit", us_per_edit)
      .set("speedup", speedup)
      .set("mean_reuse", sum_reuse * inv)
      .set("mean_dirty_path", static_cast<double>(sum_dirty) * inv)
      .set("check", check ? (rc == 0 ? "pass" : "FAIL") : "off");
  std::printf("\n");
  report.print_metrics();
  return rc;
}

// Artifact writes gate the exit code: a run whose --metrics-out/--trace-out
// cannot be written exits 2 instead of silently dropping the report.
int finish_cli(obs::Report& report, int rc) {
  const int wrc = report.write_artifacts();
  return rc != 0 ? rc : wrc;
}

}  // namespace

int main(int argc, char** argv) {
  auto report = obs::Report::from_cli("lcert-cli", argc, argv);
  std::string probe_error;
  if (!report.outputs_writable(&probe_error)) {
    std::fprintf(stderr, "error: %s\n", probe_error.c_str());
    return 2;
  }
  const std::vector<std::string> args(argv + 1, argv + argc);
  try {
    if (args.empty() || args[0] == "list") {
      std::printf("available schemes:\n");
      for (const auto& entry : scheme_registry())
        std::printf("  %-24s %s\n", entry.key.c_str(), entry.description.c_str());
      return 0;
    }
    if (args[0] == "demo" && args.size() >= 2) {
      const RegisteredScheme* entry = lookup(args[1]);
      if (entry == nullptr) return 2;
      const std::size_t n = args.size() >= 3 ? std::stoul(args[2]) : 24;
      Rng rng(42);
      const Graph g = entry->family.yes_instance(n, rng);
      const int rc = run_scheme_on(*entry, g);
      return finish_cli(report, rc);
    }
    if (args[0] == "run" && args.size() >= 3) {
      const RegisteredScheme* entry = lookup(args[1]);
      if (entry == nullptr) return 2;
      const int rc = run_scheme_on(*entry, load(args[2]));
      return finish_cli(report, rc);
    }
    if (args[0] == "audit" && args.size() >= 2) {
      const int rc = audit_command(args, report);
      return finish_cli(report, rc);
    }
    if (args[0] == "prove" && args.size() >= 2) {
      const int rc = prove_command(args, report);
      return finish_cli(report, rc);
    }
    if (args[0] == "fuzz" && args.size() >= 2) {
      const int rc = fuzz_command(args, report);
      return finish_cli(report, rc);
    }
    if (args[0] == "apply-edit" && args.size() >= 4) {
      const int rc = apply_edit_command(args, report);
      return finish_cli(report, rc);
    }
    if (args[0] == "watch" && args.size() >= 2) {
      const int rc = watch_command(args, report);
      return finish_cli(report, rc);
    }
    if (args[0] == "dot" && args.size() >= 2) {
      std::fputs(to_dot(load(args[1])).c_str(), stdout);
      return 0;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  std::fprintf(stderr,
               "usage: lcert_cli list | demo <scheme> [n] | run <scheme> <file|-> | "
               "audit <scheme|all> [n] | prove <scheme> [n] [--threads T] [--no-memo] "
               "[--family F] [--solver greedy|cold-flow|sat] | "
               "fuzz <scheme|all> [--trials N] [--time-budget S] "
               "[--seed S] [--threads T] [--base-n N] [--replay T] [--out DIR] "
               "[--solver S] | "
               "apply-edit <scheme> <file|-> <spec>... [--threads T] [--check] | "
               "watch <scheme> [n] [--family F] [--edits K] [--seed S] [--threads T] "
               "[--check] | "
               "dot <file|->\n");
  return 2;
}
