#include "src/cert/audit.hpp"

#include <algorithm>
#include <atomic>
#include <functional>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "src/automata/box_index.hpp"
#include "src/automata/uop_automaton.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/solve/solver.hpp"
#include "src/util/parallel.hpp"

namespace lcert {

namespace {

// Trials per attack family, plus the forgery tally the issue tracker of a
// scheme actually cares about. Replay/empty probes are single verifications;
// random/mutation/exhaustive count every executed trial (skipped trials —
// e.g. numbered above an already-found forgery — are not counted); sat_run
// counts rootings searched.
struct AuditMetrics {
  obs::Counter random_trials = obs::registry().counter("audit/trials/random");
  obs::Counter mutation_trials = obs::registry().counter("audit/trials/bit_flip");
  obs::Counter replay_trials = obs::registry().counter("audit/trials/replay");
  obs::Counter empty_trials = obs::registry().counter("audit/trials/empty");
  obs::Counter exhaustive_trials = obs::registry().counter("audit/trials/exhaustive");
  obs::Counter sat_run_trials = obs::registry().counter("audit/trials/sat_run");
  obs::Counter attacks = obs::registry().counter("audit/attacks");
  obs::Counter forgeries = obs::registry().counter("audit/forgeries");
  obs::Counter completeness_checks = obs::registry().counter("audit/completeness_checks");
  std::uint32_t trace_attack = obs::trace_sink().name_id("audit/attack_soundness");
  std::uint32_t trace_exhaustive = obs::trace_sink().name_id("audit/exhaustive_attack");
  std::uint32_t trace_complete = obs::trace_sink().name_id("audit/require_complete");
};

const AuditMetrics& audit_metrics() {
  static const AuditMetrics metrics;
  return metrics;
}

Certificate random_certificate(Rng& rng, std::size_t max_bits) {
  const std::size_t bits = rng.index(max_bits + 1);
  BitWriter w;
  for (std::size_t i = 0; i < bits; ++i) w.write_bit(rng.coin());
  return Certificate::from_writer(std::move(w));
}

Certificate flip_bit(const Certificate& c, std::size_t bit) {
  Certificate out = c;
  out.bytes[bit / 8] ^= static_cast<std::uint8_t>(0x80u >> (bit % 8));
  return out;
}

// Attack trials only need accept/reject: early-exit, and stay single-threaded
// per verification — the parallelism lives at the trial level.
constexpr RunOptions kTrialVerify{/*num_threads=*/1, /*stop_at_first_reject=*/true};

bool accepted_everywhere(const Scheme& scheme, const ViewCache& cache,
                         const std::vector<Certificate>& certs) {
  return verify_assignment(scheme, cache, certs, kTrialVerify).all_accept;
}

// Runs `trials` independent attack trials on the worker pool. make_certs(rng)
// builds one candidate assignment from the trial's private Rng; the forgery
// reported is the one from the lowest-numbered successful trial, making the
// outcome independent of the thread count. Trials numbered above an already
// recorded success are skipped — their results could never win.
std::optional<std::vector<Certificate>> run_trials(
    const Scheme& scheme, const ViewCache& cache, std::size_t trials, Rng& rng,
    std::size_t num_threads, obs::Counter trial_counter, std::size_t& executed,
    const std::function<std::vector<Certificate>(Rng&)>& make_certs) {
  // Per-trial seeds drawn serially up front: each trial's randomness depends
  // only on its index, never on execution order.
  std::vector<std::uint64_t> seeds(trials);
  for (auto& s : seeds) s = rng.uniform(0, std::numeric_limits<std::uint64_t>::max());

  std::atomic<std::size_t> best{SIZE_MAX};
  std::atomic<std::size_t> ran{0};
  std::vector<Certificate> forged;
  std::mutex forged_mutex;
  parallel_for(trials, num_threads, [&](std::size_t trial) {
    if (trial > best.load(std::memory_order_relaxed)) return;
    trial_counter.add();
    ran.fetch_add(1, std::memory_order_relaxed);
    Rng trial_rng(seeds[trial]);
    std::vector<Certificate> certs = make_certs(trial_rng);
    if (certs.empty()) return;  // trial not applicable (e.g. zero-bit flip target)
    if (!accepted_everywhere(scheme, cache, certs)) return;
    std::lock_guard<std::mutex> lock(forged_mutex);
    if (trial < best.load(std::memory_order_relaxed)) {
      best.store(trial, std::memory_order_relaxed);
      forged = std::move(certs);
    }
  });
  executed = ran.load();
  if (best.load() == SIZE_MAX) return std::nullopt;
  return forged;
}

// ---------------------------------------------------------------------------
// The sat-run strategy: instead of perturbing bit strings, search the
// semantic forgery space. For run-encoding schemes (RunForgerySurface) every
// assignment the verifier could accept decodes to an orientation of an
// accepting automaton run, so asking the SAT solver backend for an accepting
// run on the no-instance — per candidate rooting, bottom-up feasibility DP
// then top-down witness extraction — covers that entire space. Exhausting
// every rooting is therefore a completeness statement for this family, which
// no trial-count budget of the syntactic attacks can make.
// ---------------------------------------------------------------------------
std::optional<std::vector<Certificate>> sat_run_attack(const AttackContext& ctx,
                                                       AttackOutcome& out) {
  const auto surface = ctx.scheme.run_forgery_surface();
  if (!surface.has_value() || surface->automaton == nullptr || !surface->encode) {
    out.applicable = false;
    out.detail = "scheme exposes no run-forgery surface";
    return std::nullopt;
  }
  const UOPAutomaton& a = *surface->automaton;
  if (surface->boxes.size() != a.state_count)
    throw std::logic_error("sat-run attack: the surface must carry one box list per state");
  if (a.label_count != 1 || a.state_count > 64) {
    out.applicable = false;
    out.detail = "unsupported automaton shape (labels or >64 states)";
    return std::nullopt;
  }
  const Graph& g = ctx.no_instance;
  const std::size_t n = g.vertex_count();
  if (n == 0 || g.edge_count() != n - 1 || !g.is_connected()) {
    out.applicable = false;
    out.detail = "instance outside the tree promise";
    return std::nullopt;
  }

  const std::size_t k = a.state_count;
  const std::span<const BoxIndex> boxes = surface->boxes;

  const auto solver = solve::SolverFactory::make(solve::Backend::kSat);
  const AuditMetrics& metrics = audit_metrics();
  std::vector<std::uint64_t> feasible(n, 0);
  std::vector<std::uint64_t> child_masks;
  std::vector<std::size_t> witness;

  const std::size_t root_budget = out.budget;
  for (Vertex root = 0; root < n; ++root) {
    if (out.trials >= root_budget) {
      out.detail = "root budget exhausted after " + std::to_string(out.trials) +
                   " of " + std::to_string(n) + " rootings";
      return std::nullopt;
    }
    ++out.trials;
    metrics.sat_run_trials.add();
    const RootedTree t = RootedTree::from_graph(g, root);
    const auto order = t.preorder();

    std::fill(feasible.begin(), feasible.end(), 0);
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const std::size_t v = *it;
      child_masks.clear();
      for (std::size_t c : t.children(v)) child_masks.push_back(feasible[c]);
      solver->begin(child_masks, k);
      for (std::size_t q = 0; q < k; ++q)
        if (solver->decide_first(boxes[q]) != BoxIndex::npos)
          feasible[v] |= std::uint64_t{1} << q;
    }

    std::size_t root_state = SIZE_MAX;
    for (std::size_t q = 0; q < k; ++q)
      if (a.accepting[q] && (feasible[t.root()] >> q & 1u)) {
        root_state = q;
        break;
      }
    if (root_state == SIZE_MAX) continue;

    // An accepting run exists under this rooting: extract one. Witness
    // validity is all that matters here (the verifier is the judge), so the
    // solver's own models are fine — no pristine-flow detour.
    std::vector<std::size_t> run(n, SIZE_MAX);
    run[t.root()] = root_state;
    for (std::size_t v : order) {
      const std::size_t q = run[v];
      const auto children_span = t.children(v);
      if (children_span.empty()) continue;
      child_masks.clear();
      for (std::size_t c : children_span) child_masks.push_back(feasible[c]);
      solver->begin(child_masks, k);
      bool placed = false;
      // Same sweep as decide_first: the skipped boxes are ones decide_witness
      // would reject on the necessary conditions, so the witness comes from
      // the same box a full sweep would pick.
      const BoxIndex& idx = boxes[q];
      for (std::size_t bi = 0; bi < idx.size(); ++bi) {
        if (!idx.may_be_feasible(bi, solver->supply().data(), child_masks.size()))
          continue;
        if (!solver->decide_witness(idx.box(bi), witness)) continue;
        for (std::size_t i = 0; i < children_span.size(); ++i)
          run[children_span[i]] = witness[i];
        placed = true;
        break;
      }
      if (!placed)
        throw std::logic_error("sat-run attack: extraction failed after feasibility");
    }

    std::vector<Certificate> certs(n);
    for (Vertex v = 0; v < n; ++v) certs[v] = surface->encode(t.depth(v) % 3, run[v]);
    if (accepted_everywhere(ctx.scheme, ctx.cache, certs)) {
      out.detail = "accepting run rooted at " + std::to_string(root);
      return certs;
    }
    // A run the automaton accepts but the verifier rejects contradicts the
    // surface's contract; surface it rather than silently moving on.
    out.detail = "accepting run rooted at " + std::to_string(root) +
                 " was rejected by the verifier (surface mismatch)";
  }
  if (out.detail.empty())
    out.detail =
        "no accepting run from any of " + std::to_string(n) + " rootings";
  return std::nullopt;
}

}  // namespace

std::vector<AttackStrategy> standard_attack_plan(const RunOptions& options) {
  std::vector<AttackStrategy> plan;

  plan.push_back({"random", options.random_trials,
                  [](const AttackContext& ctx, Rng& rng, AttackOutcome& out) {
                    const std::size_t n = ctx.no_instance.vertex_count();
                    const std::size_t max_bits = ctx.options.max_random_bits;
                    return run_trials(
                        ctx.scheme, ctx.cache, out.budget, rng,
                        ctx.options.num_threads, audit_metrics().random_trials,
                        out.trials, [n, max_bits](Rng& trial_rng) {
                          std::vector<Certificate> certs(n);
                          for (auto& c : certs)
                            c = random_certificate(trial_rng, max_bits);
                          return certs;
                        });
                  }});

  plan.push_back({"empty", 1,
                  [](const AttackContext& ctx, Rng&, AttackOutcome& out)
                      -> std::optional<std::vector<Certificate>> {
                    std::vector<Certificate> certs(ctx.no_instance.vertex_count());
                    out.trials = 1;
                    audit_metrics().empty_trials.add();
                    if (accepted_everywhere(ctx.scheme, ctx.cache, certs))
                      return certs;
                    return std::nullopt;
                  }});

  const auto has_template = [](const AttackContext& ctx) {
    return ctx.yes_template != nullptr &&
           ctx.yes_template->size() == ctx.no_instance.vertex_count();
  };

  plan.push_back({"replay", 1,
                  [has_template](const AttackContext& ctx, Rng&, AttackOutcome& out)
                      -> std::optional<std::vector<Certificate>> {
                    if (!has_template(ctx) || !ctx.options.try_replay) {
                      out.applicable = false;
                      out.detail = "no yes-template";
                      return std::nullopt;
                    }
                    out.trials = 1;
                    audit_metrics().replay_trials.add();
                    if (accepted_everywhere(ctx.scheme, ctx.cache, *ctx.yes_template))
                      return *ctx.yes_template;
                    return std::nullopt;
                  }});

  plan.push_back({"replay-shuffled", 1,
                  [has_template](const AttackContext& ctx, Rng& rng, AttackOutcome& out)
                      -> std::optional<std::vector<Certificate>> {
                    if (!has_template(ctx) || !ctx.options.try_replay) {
                      out.applicable = false;
                      out.detail = "no yes-template";
                      return std::nullopt;
                    }
                    std::vector<Certificate> shuffled = *ctx.yes_template;
                    rng.shuffle(shuffled);
                    out.trials = 1;
                    audit_metrics().replay_trials.add();
                    if (accepted_everywhere(ctx.scheme, ctx.cache, shuffled))
                      return shuffled;
                    return std::nullopt;
                  }});

  plan.push_back({"bit-flip", options.mutation_trials,
                  [has_template](const AttackContext& ctx, Rng& rng, AttackOutcome& out)
                      -> std::optional<std::vector<Certificate>> {
                    if (!has_template(ctx)) {
                      out.applicable = false;
                      out.detail = "no yes-template";
                      return std::nullopt;
                    }
                    const std::size_t n = ctx.no_instance.vertex_count();
                    const std::vector<Certificate>& tmpl = *ctx.yes_template;
                    return run_trials(
                        ctx.scheme, ctx.cache, out.budget, rng,
                        ctx.options.num_threads, audit_metrics().mutation_trials,
                        out.trials, [n, &tmpl](Rng& trial_rng) {
                          std::vector<Certificate> certs = tmpl;
                          const Vertex v = static_cast<Vertex>(trial_rng.index(n));
                          if (certs[v].bit_size == 0) return std::vector<Certificate>{};
                          certs[v] = flip_bit(certs[v], trial_rng.index(certs[v].bit_size));
                          return certs;
                        });
                  }});

  // Last on purpose: draws nothing from the shared Rng, so adding/removing it
  // never shifts the draw order the replay contract depends on.
  plan.push_back({"sat-run", std::max<std::size_t>(options.random_trials, 1),
                  [](const AttackContext& ctx, Rng&, AttackOutcome& out) {
                    return sat_run_attack(ctx, out);
                  }});

  return plan;
}

SoundnessAuditReport run_soundness_audit(const Scheme& scheme, const Graph& no_instance,
                                         const std::vector<Certificate>* yes_template,
                                         Rng& rng, const RunOptions& options,
                                         const std::vector<AttackStrategy>* plan) {
  if (scheme.holds(no_instance))
    throw std::invalid_argument("run_soundness_audit: instance satisfies the property");
  const AuditMetrics& metrics = audit_metrics();
  const obs::TraceSpan span(metrics.trace_attack);
  metrics.attacks.add();
  const ViewCache cache(no_instance);  // one topology walk for every strategy below
  const AttackContext ctx{scheme, no_instance, cache, yes_template, options};

  const std::vector<AttackStrategy> standard =
      plan == nullptr ? standard_attack_plan(options) : std::vector<AttackStrategy>{};
  const std::vector<AttackStrategy>& strategies = plan == nullptr ? standard : *plan;

  SoundnessAuditReport report;
  report.outcomes.reserve(strategies.size());
  for (const AttackStrategy& strategy : strategies) {
    AttackOutcome& out = report.outcomes.emplace_back();
    out.strategy = strategy.name;
    out.budget = strategy.budget;
    if (report.forgery.has_value()) {
      // Plan order is fixed, so later strategies are reported but unexecuted
      // once a forgery is in hand.
      out.applicable = false;
      out.detail = "skipped: forgery already found";
      continue;
    }
    auto certs = strategy.run(ctx, rng, out);
    if (certs.has_value()) {
      out.forged = true;
      metrics.forgeries.add();
      report.forgery = ForgedAssignment{std::move(*certs), strategy.name};
    }
  }
  return report;
}

std::optional<ForgedAssignment> attack_soundness(const Scheme& scheme,
                                                 const Graph& no_instance,
                                                 const std::vector<Certificate>* yes_template,
                                                 Rng& rng, const RunOptions& options) {
  return run_soundness_audit(scheme, no_instance, yes_template, rng, options).forgery;
}

namespace {

// Enumerates all bit strings with 0..max_bits bits in a canonical order.
std::vector<Certificate> all_certificates(std::size_t max_bits) {
  std::vector<Certificate> out;
  for (std::size_t bits = 0; bits <= max_bits; ++bits) {
    const std::uint64_t limit = std::uint64_t{1} << bits;
    for (std::uint64_t value = 0; value < limit; ++value) {
      BitWriter w;
      w.write(value, static_cast<unsigned>(bits));
      out.push_back(Certificate::from_writer(std::move(w)));
    }
  }
  return out;
}

}  // namespace

std::optional<ForgedAssignment> exhaustive_soundness_attack(const Scheme& scheme,
                                                            const Graph& no_instance,
                                                            std::size_t max_bits) {
  if (scheme.holds(no_instance))
    throw std::invalid_argument("exhaustive_soundness_attack: instance satisfies the property");
  const std::size_t n = no_instance.vertex_count();
  const auto alphabet = all_certificates(max_bits);
  double combos = 1;
  for (std::size_t i = 0; i < n; ++i) combos *= static_cast<double>(alphabet.size());
  if (combos > 2e7)
    throw std::invalid_argument("exhaustive_soundness_attack: search space too large");

  // The odometer order is part of the contract (first accepting assignment in
  // canonical order); it stays serial, but every probe reuses the cache and
  // early-exits on the first rejecting vertex.
  const AuditMetrics& metrics = audit_metrics();
  const obs::TraceSpan span(metrics.trace_exhaustive);
  const ViewCache cache(no_instance);
  std::vector<std::size_t> pick(n, 0);
  std::vector<Certificate> certs(n, alphabet[0]);
  while (true) {
    metrics.exhaustive_trials.add();
    if (accepted_everywhere(scheme, cache, certs)) {
      metrics.forgeries.add();
      return ForgedAssignment{certs, "exhaustive"};
    }
    // Odometer increment.
    std::size_t i = 0;
    while (i < n) {
      if (++pick[i] < alphabet.size()) {
        certs[i] = alphabet[pick[i]];
        break;
      }
      pick[i] = 0;
      certs[i] = alphabet[0];
      ++i;
    }
    if (i == n) break;
  }
  return std::nullopt;
}

void require_complete(const Scheme& scheme, const Graph& yes_instance) {
  if (!scheme.holds(yes_instance))
    throw std::invalid_argument("require_complete: instance does not satisfy the property");
  const AuditMetrics& metrics = audit_metrics();
  const obs::TraceSpan span(metrics.trace_complete);
  metrics.completeness_checks.add();
  const auto outcome = run_scheme(scheme, yes_instance);
  if (!outcome.prover_succeeded)
    throw std::logic_error(scheme.name() + ": prover failed on yes-instance");
  if (!outcome.verification.all_accept) {
    std::ostringstream os;
    os << scheme.name() << ": verifier rejected honest certificates at vertices:";
    for (Vertex v : outcome.verification.rejecting) os << ' ' << v;
    throw std::logic_error(os.str());
  }
}

}  // namespace lcert
