#include "src/fuzz/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <sstream>
#include <utility>

#include "src/fuzz/mutators.hpp"
#include "src/fuzz/shrink.hpp"
#include "src/graph/io.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/util/parallel.hpp"

namespace lcert::fuzz {

namespace {

struct FuzzMetrics {
  obs::Counter trials = obs::registry().counter("fuzz/trials");
  obs::Counter skips = obs::registry().counter("fuzz/skips");
  obs::Counter yes_instances = obs::registry().counter("fuzz/yes_instances");
  obs::Counter no_instances = obs::registry().counter("fuzz/no_instances");
  obs::Counter findings = obs::registry().counter("fuzz/findings");
  obs::Counter shrink_steps = obs::registry().counter("fuzz/shrink_steps");
  obs::Histogram instance_n = obs::registry().histogram("fuzz/instance_n");
  std::uint32_t trace_campaign = obs::trace_sink().name_id("fuzz/campaign");
};

const FuzzMetrics& fuzz_metrics() {
  static const FuzzMetrics metrics;
  return metrics;
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

struct TrialOutcome {
  bool skipped = false;
  bool yes = false;
  std::optional<Finding> finding;
};

/// One complete trial: generate, mutate, check. Everything downstream of the
/// trial seed; no shared state, so trials parallelize freely.
TrialOutcome run_one_trial(const Scheme& scheme, const InstanceFamily& family,
                           const CampaignOptions& options, std::size_t trial) {
  const std::uint64_t seed = trial_seed(options.seed, trial);
  Rng rng(seed);
  const FuzzMetrics& metrics = fuzz_metrics();

  TrialOutcome out;
  Graph g;
  std::vector<std::string> trace;
  try {
    // Bias toward yes-instances: mutations drift across the boundary anyway,
    // and completeness bugs need yes-side starts.
    const bool from_yes = rng.coin(0.6);
    g = from_yes ? family.yes_instance(options.base_n, rng)
                 : family.no_instance(options.base_n, rng);
    if (!family.mutators.empty() && options.max_mutations > 0) {
      const std::size_t steps = rng.index(options.max_mutations + 1);
      for (std::size_t i = 0; i < steps; ++i) {
        const MutatorKind kind = family.mutators[rng.index(family.mutators.size())];
        if (auto mutated = apply_mutator(g, kind, rng)) {
          g = std::move(*mutated);
          trace.push_back(mutator_name(kind));
        }
      }
    }
  } catch (const std::invalid_argument&) {
    // Generator/mutator produced something outside its own contract for this
    // n; treat like a promise skip rather than crashing the campaign.
    metrics.skips.add();
    out.skipped = true;
    return out;
  }

  metrics.instance_n.record(g.vertex_count());
  const CheckOutcome checked = check_instance(scheme, family, g, rng, options.attack);
  if (checked.skipped) {
    metrics.skips.add();
    out.skipped = true;
    return out;
  }
  metrics.trials.add();
  out.yes = checked.ground_truth;
  (out.yes ? metrics.yes_instances : metrics.no_instances).add();
  // Timeline marker per completed trial: logical = trial index (seed-derived
  // work identity, scheduling-independent), arg = yes/no ground truth.
  static const std::uint32_t trace_trial = obs::trace_sink().name_id("fuzz/trial");
  obs::trace_sink().emit(trace_trial, obs::TraceEventKind::kInstant, trial,
                         out.yes ? 1 : 0);
  if (checked.violation.has_value()) {
    metrics.findings.add();
    Finding f;
    f.trial = trial;
    f.seed = seed;
    f.oracle = checked.violation->oracle;
    f.detail = checked.violation->detail;
    f.graph = g;
    f.original = std::move(g);
    f.mutation_trace = std::move(trace);
    out.finding = std::move(f);
  }
  return out;
}

void shrink_finding(const Scheme& scheme, const InstanceFamily& family,
                    const CampaignOptions& options, Finding& finding) {
  ShrinkResult shrunk = shrink_counterexample(scheme, family, finding.original,
                                              finding.oracle, finding.seed, options.attack);
  fuzz_metrics().shrink_steps.add(shrunk.steps);
  finding.graph = std::move(shrunk.graph);
  finding.shrink_steps = shrunk.steps;
}

}  // namespace

std::uint64_t trial_seed(std::uint64_t campaign_seed, std::uint64_t index) {
  return splitmix64(campaign_seed ^ splitmix64(index + 0x5DEECE66Dull));
}

CampaignResult run_campaign(const Scheme& scheme, const InstanceFamily& family,
                            const CampaignOptions& options) {
  const obs::TraceSpan span(fuzz_metrics().trace_campaign);
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  const std::size_t max_findings = std::max<std::size_t>(options.max_findings, 1);

  CampaignResult result;
  std::mutex findings_mutex;
  std::vector<Finding> findings;
  // Trials indexed above the max_findings-th smallest hit can never place;
  // the threshold only decreases, so skipping them is scheduling-independent
  // (same argument as the audit's lowest-trial-wins forgery).
  std::atomic<std::size_t> threshold{SIZE_MAX};
  std::atomic<std::size_t> trials_run{0}, skipped{0}, yes_count{0}, no_count{0};

  const auto trial_body = [&](std::size_t trial) {
    if (trial > threshold.load(std::memory_order_relaxed)) return;
    TrialOutcome outcome = run_one_trial(scheme, family, options, trial);
    if (outcome.skipped) {
      skipped.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    trials_run.fetch_add(1, std::memory_order_relaxed);
    (outcome.yes ? yes_count : no_count).fetch_add(1, std::memory_order_relaxed);
    if (!outcome.finding.has_value()) return;
    std::lock_guard<std::mutex> lock(findings_mutex);
    const auto pos = std::lower_bound(
        findings.begin(), findings.end(), outcome.finding->trial,
        [](const Finding& f, std::size_t t) { return f.trial < t; });
    findings.insert(pos, std::move(*outcome.finding));
    if (findings.size() >= max_findings)
      threshold.store(findings[max_findings - 1].trial, std::memory_order_relaxed);
  };

  if (options.time_budget_s > 0) {
    // Wall-clock mode: draw trials in chunks until the budget runs out. Each
    // finding still replays exactly from (seed, trial); only the set of
    // executed trials is timing-dependent.
    constexpr std::size_t kChunk = 64;
    std::size_t next = 0;
    while (std::chrono::duration<double>(Clock::now() - start).count() <
               options.time_budget_s &&
           threshold.load(std::memory_order_relaxed) == SIZE_MAX) {
      parallel_for(kChunk, options.num_threads,
                   [&](std::size_t i) { trial_body(next + i); });
      next += kChunk;
    }
  } else {
    parallel_for(options.trials, options.num_threads, trial_body);
  }

  if (findings.size() > max_findings) findings.resize(max_findings);
  if (options.shrink)
    for (Finding& f : findings) shrink_finding(scheme, family, options, f);
  result.findings = std::move(findings);
  result.stats.trials_run = trials_run.load();
  result.stats.trials_skipped = skipped.load();
  result.stats.yes_instances = yes_count.load();
  result.stats.no_instances = no_count.load();
  result.stats.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

CampaignResult replay_trial(const Scheme& scheme, const InstanceFamily& family,
                            const CampaignOptions& options, std::size_t trial) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  CampaignResult result;
  TrialOutcome outcome = run_one_trial(scheme, family, options, trial);
  result.stats.trials_run = outcome.skipped ? 0 : 1;
  result.stats.trials_skipped = outcome.skipped ? 1 : 0;
  if (!outcome.skipped) (outcome.yes ? result.stats.yes_instances
                                     : result.stats.no_instances) = 1;
  if (outcome.finding.has_value()) {
    if (options.shrink) shrink_finding(scheme, family, options, *outcome.finding);
    result.findings.push_back(std::move(*outcome.finding));
  }
  result.stats.seconds = std::chrono::duration<double>(Clock::now() - start).count();
  return result;
}

std::string repro_snippet(const Finding& finding, const std::string& scheme_key) {
  std::ostringstream os;
  os << "// Fuzz repro: " << oracle_name(finding.oracle) << " on '" << scheme_key << "'\n"
     << "// " << finding.detail << "\n"
     << "// replay: trial " << finding.trial << ", trial seed " << finding.seed;
  if (!finding.mutation_trace.empty()) {
    os << ", mutations:";
    for (const auto& m : finding.mutation_trace) os << ' ' << m;
  }
  os << "\nTEST(FuzzRepro, " << "Trial" << finding.trial << ") {\n"
     << "  const lcert::Graph g = lcert::parse_edge_list(R\"(\n"
     << to_edge_list(finding.graph) << ")\");\n"
     << "  const auto& entry = lcert::find_scheme(\"" << scheme_key << "\");\n"
     << "  const auto scheme = entry.make();\n"
     << "  lcert::Rng rng(" << finding.seed << "ull);\n"
     << "  const auto outcome = lcert::fuzz::check_instance(\n"
     << "      *scheme, entry.family, g, rng, lcert::RunOptions{1, true});\n"
     << "  ASSERT_FALSE(outcome.violation.has_value())\n"
     << "      << lcert::fuzz::oracle_name(outcome.violation->oracle) << \": \"\n"
     << "      << outcome.violation->detail;\n"
     << "}\n";
  return os.str();
}

}  // namespace lcert::fuzz
