#include "src/fuzz/oracles.hpp"

#include <sstream>
#include <stdexcept>

#include "src/automata/box_index.hpp"
#include "src/automata/uop_automaton.hpp"
#include "src/cert/audit.hpp"
#include "src/cert/engine.hpp"
#include "src/cert/prove.hpp"
#include "src/fuzz/mutators.hpp"
#include "src/incr/incremental.hpp"
#include "src/obs/metrics.hpp"
#include "src/solve/solver.hpp"

namespace lcert::fuzz {

namespace {

// One hit counter per oracle, resolved once.
struct OracleMetrics {
  obs::Counter reference = obs::registry().counter("fuzz/oracle/reference-disagreement");
  obs::Counter prover_refused = obs::registry().counter("fuzz/oracle/prover-refused-yes");
  obs::Counter verifier_rejected =
      obs::registry().counter("fuzz/oracle/verifier-rejected-honest");
  obs::Counter prover_certified = obs::registry().counter("fuzz/oracle/prover-certified-no");
  obs::Counter batch = obs::registry().counter("fuzz/oracle/batch-divergence");
  obs::Counter round_trip = obs::registry().counter("fuzz/oracle/round-trip-mismatch");
  obs::Counter forgery = obs::registry().counter("fuzz/oracle/soundness-forgery");
  obs::Counter solver = obs::registry().counter("fuzz/oracle/solver-divergence");
  obs::Counter incremental =
      obs::registry().counter("fuzz/oracle/incremental-divergence");
  obs::Counter box_index =
      obs::registry().counter("fuzz/oracle/box-index-divergence");
};

const OracleMetrics& oracle_metrics() {
  static const OracleMetrics metrics;
  return metrics;
}

void count_hit(Oracle oracle) {
  const OracleMetrics& m = oracle_metrics();
  switch (oracle) {
    case Oracle::kReferenceDisagreement: m.reference.add(); break;
    case Oracle::kProverRefusedYesInstance: m.prover_refused.add(); break;
    case Oracle::kVerifierRejectedHonest: m.verifier_rejected.add(); break;
    case Oracle::kProverCertifiedNoInstance: m.prover_certified.add(); break;
    case Oracle::kBatchDivergence: m.batch.add(); break;
    case Oracle::kRoundTripMismatch: m.round_trip.add(); break;
    case Oracle::kSoundnessForgery: m.forgery.add(); break;
    case Oracle::kSolverDivergence: m.solver.add(); break;
    case Oracle::kIncrementalDivergence: m.incremental.add(); break;
    case Oracle::kBoxIndexDivergence: m.box_index.add(); break;
  }
}

CheckOutcome violation(Oracle oracle, std::string detail) {
  count_hit(oracle);
  CheckOutcome out;
  out.violation = Violation{oracle, std::move(detail)};
  return out;
}

/// Bit-exact round trip: read every bit back and re-encode. Any divergence
/// means BitReader and BitWriter disagree about the stream layout.
bool round_trips(const Certificate& c) {
  BitReader r = c.reader();
  BitWriter w;
  for (std::size_t i = 0; i < c.bit_size; ++i) w.write_bit(r.read(1) != 0);
  const Certificate back = Certificate::from_writer(std::move(w));
  return back == c;
}

/// Per-vertex verify with the engine's exception policy (CertificateTruncated
/// rejects), for comparison against the batched path.
bool verify_single(const Scheme& scheme, const ViewRef& view) {
  try {
    return scheme.verify(view);
  } catch (const CertificateTruncated&) {
    return false;
  }
}

bool same_assignment(const std::optional<std::vector<Certificate>>& a,
                     const std::optional<std::vector<Certificate>>& b) {
  if (a.has_value() != b.has_value()) return false;
  return !a.has_value() || *a == *b;
}

/// Oracle 9: the incremental recertification path is a pure speedup. Drives
/// a CertifiedInstance through a short random walk of family edits and
/// demands, after init and after every edit, bit-identical certificates to a
/// cold full re-prove of the accumulated graph — plus a clean radius-1
/// re-verification of the changed slice. Runs after the older oracles so its
/// rng draws never shift their streams (replay coordinates of recorded repro
/// files stay valid); box-index-divergence runs after it for the same
/// reason.
std::optional<CheckOutcome> incremental_divergence(const Scheme& scheme,
                                                   const InstanceFamily& family,
                                                   const Graph& g, Rng& rng,
                                                   solve::Backend solver) {
  RunOptions opts;
  opts.num_threads = 1;
  opts.solver = solver;  // the campaign's --solver choice drives the re-proves
  incr::CertifiedInstance live(scheme, opts);
  if (!live.incremental()) return std::nullopt;

  Graph cur = g;
  live.init(cur);
  if (!same_assignment(live.certificates(),
                       prove_assignment(scheme, cur, opts).certificates))
    return violation(Oracle::kIncrementalDivergence,
                     "init diverged from a cold prove_assignment");

  if (family.mutators.empty()) return std::nullopt;
  constexpr std::size_t kWalkLength = 4;
  for (std::size_t step = 0; step < kWalkLength; ++step) {
    const MutatorKind kind = family.mutators[rng.index(family.mutators.size())];
    const auto edit = draw_edit(cur, kind, rng);
    if (!edit.has_value()) continue;
    const IncrementalStats st = live.apply(*edit);
    cur = apply_edit(cur, *edit);
    if (!same_assignment(live.certificates(),
                         prove_assignment(scheme, cur, opts).certificates)) {
      std::ostringstream os;
      os << "edit " << step << " (" << to_string(*edit)
         << ") diverged from a cold prove_assignment"
         << (st.full_reprove ? " [full-reprove path]" : " [incremental path]");
      return violation(Oracle::kIncrementalDivergence, os.str());
    }
    if (!st.reverify_clean) {
      std::ostringstream os;
      os << "edit " << step << " (" << to_string(*edit)
         << "): re-verification of the changed slice rejected";
      return violation(Oracle::kIncrementalDivergence, os.str());
    }
  }
  return std::nullopt;
}

/// Oracle 10: the scheme's box lists must be invisible. For every state of
/// the scheme's automaton it takes the canonical box list the scheme holds
/// (the run-forgery surface's boxes) and demands, on random probes, (a) the
/// SoA first_containing == the first box whose IntervalBox::contains accepts
/// the probe, (b) canonical-DNF membership == the constraint AST's eval()
/// (exactness of canonicalize_boxes end to end), and (c) decide_first, with
/// its necessary-condition skip, == a full per-box decide sweep on the
/// cold-flow reference backend. Runs last in the battery so its rng draws
/// never shift the streams of the older oracles.
std::optional<CheckOutcome> box_index_divergence(const Scheme& scheme, Rng& rng) {
  const auto surface = scheme.run_forgery_surface();
  if (!surface.has_value() || surface->automaton == nullptr) return std::nullopt;
  const UOPAutomaton& a = *surface->automaton;
  if (a.label_count != 1) return std::nullopt;
  const std::size_t k = a.state_count;
  if (surface->boxes.size() != k)
    return violation(Oracle::kBoxIndexDivergence,
                     "run-forgery surface carries " + std::to_string(surface->boxes.size()) +
                         " box lists for " + std::to_string(k) + " states");

  std::vector<std::size_t> counts(k);
  std::vector<std::uint64_t> child_masks;
  for (std::size_t q = 0; q < k; ++q) {
    const UnaryConstraint& delta = a.transition(q, 0);
    const BoxIndex& idx = surface->boxes[q];

    // Probe bound: beyond every finite endpoint the membership landscape is
    // constant, so counts in [0, bound + 2] reach every cell of the DNF.
    std::size_t bound = 2;
    for (const IntervalBox& b : idx.boxes())
      for (std::size_t c = 0; c < k; ++c) {
        bound = std::max(bound, b.lo[c]);
        if (b.hi[c] != IntervalBox::kUnbounded) bound = std::max(bound, b.hi[c]);
      }

    for (int trial = 0; trial < 8; ++trial) {
      for (std::size_t c = 0; c < k; ++c) counts[c] = rng.index(bound + 3);
      std::size_t sweep = BoxIndex::npos;
      for (std::size_t i = 0; i < idx.size() && sweep == BoxIndex::npos; ++i)
        if (idx.box(i).contains(counts)) sweep = i;
      const BoxIndex::Hit hit = idx.first_containing(counts.data(), k);
      if (hit.index != sweep) {
        std::ostringstream os;
        os << "state " << q << ": first_containing=" << hit.index
           << " but the IntervalBox sweep says " << sweep;
        return violation(Oracle::kBoxIndexDivergence, os.str());
      }
      if ((hit.index != BoxIndex::npos) != delta.eval(counts)) {
        std::ostringstream os;
        os << "state " << q << ": canonical DNF membership "
           << (hit.index != BoxIndex::npos) << " disagrees with eval()";
        return violation(Oracle::kBoxIndexDivergence, os.str());
      }
    }

    if (k > 64) continue;
    // decide_first's skip against a full decide sweep, both on the
    // cold-flow reference backend.
    const std::uint64_t keep =
        k == 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << k) - 1);
    for (int trial = 0; trial < 4; ++trial) {
      child_masks.resize(rng.index(5));
      for (std::uint64_t& mask : child_masks) mask = rng.uniform(0, keep);
      const auto feas = solve::SolverFactory::make(solve::Backend::kColdFlow);
      feas->begin(child_masks, k);
      std::size_t sweep_first = BoxIndex::npos;
      for (std::size_t i = 0; i < idx.size(); ++i)
        if (feas->decide(idx.box(i))) {
          sweep_first = i;
          break;
        }
      const std::size_t fast_first = feas->decide_first(idx);
      if (sweep_first != fast_first) {
        std::ostringstream os;
        os << "state " << q << " (m=" << child_masks.size()
           << "): decide_first=" << fast_first << " but the decide sweep says "
           << sweep_first;
        return violation(Oracle::kBoxIndexDivergence, os.str());
      }
    }
  }
  return std::nullopt;
}

}  // namespace

std::string oracle_name(Oracle oracle) {
  switch (oracle) {
    case Oracle::kReferenceDisagreement: return "reference-disagreement";
    case Oracle::kProverRefusedYesInstance: return "prover-refused-yes";
    case Oracle::kVerifierRejectedHonest: return "verifier-rejected-honest";
    case Oracle::kProverCertifiedNoInstance: return "prover-certified-no";
    case Oracle::kBatchDivergence: return "batch-divergence";
    case Oracle::kRoundTripMismatch: return "round-trip-mismatch";
    case Oracle::kSoundnessForgery: return "soundness-forgery";
    case Oracle::kSolverDivergence: return "solver-divergence";
    case Oracle::kIncrementalDivergence: return "incremental-divergence";
    case Oracle::kBoxIndexDivergence: return "box-index-divergence";
  }
  throw std::invalid_argument("oracle_name: unknown oracle");
}

CheckOutcome check_instance(const Scheme& scheme, const InstanceFamily& family,
                            const Graph& g, Rng& rng,
                            const RunOptions& attack_budget) {
  CheckOutcome out;

  // Ground truth. A promise violation (or a feasibility limit like the exact
  // treedepth solver's n cap) skips the trial; any other exception from
  // holds() is a bug in the scheme and propagates to the campaign.
  bool truth = false;
  try {
    truth = scheme.holds(g);
  } catch (const std::invalid_argument&) {
    out.skipped = true;
    return out;
  }
  out.ground_truth = truth;

  // Oracle 1: holds() against the family's independent implementation.
  if (family.has_reference_oracle && g.vertex_count() <= family.reference_oracle_max_n &&
      family.reference_oracle(g) != truth) {
    std::ostringstream os;
    os << "holds()=" << truth << " but the reference oracle says " << !truth << " (n="
       << g.vertex_count() << ")";
    return violation(Oracle::kReferenceDisagreement, os.str());
  }

  const auto certificates = scheme.assign(g);

  if (!truth) {
    if (certificates.has_value())
      return violation(Oracle::kProverCertifiedNoInstance,
                       "assign() returned certificates although holds() is false");
    // Oracle 7: adversarial soundness. The attack gets a yes-template of the
    // same size when the family can produce one (replay/bit-flip attacks need
    // honest material to mutate).
    std::optional<std::vector<Certificate>> yes_template;
    try {
      const Graph yes = family.yes_instance(g.vertex_count(), rng);
      yes_template = scheme.assign(yes);
    } catch (const std::exception&) {
      // Template generation is best-effort; the random/empty attacks run
      // regardless.
    }
    const auto forged = attack_soundness(
        scheme, g, yes_template.has_value() ? &*yes_template : nullptr, rng, attack_budget);
    if (forged.has_value())
      return violation(Oracle::kSoundnessForgery,
                       "attack '" + forged->attack + "' forged an accepting assignment");
    if (const auto hit =
            incremental_divergence(scheme, family, g, rng, attack_budget.solver))
      return *hit;
    // Oracle 10, after incremental-divergence for the same stream-stability
    // reason: recorded repro coordinates predate this oracle.
    if (const auto hit = box_index_divergence(scheme, rng)) return *hit;
    return out;
  }

  // Yes-instance: completeness plus the mechanical cross-checks on honest
  // certificates.
  if (!certificates.has_value())
    return violation(Oracle::kProverRefusedYesInstance,
                     "assign() returned nullopt although holds() is true");

  // Oracle 6: every honest certificate must survive a bit round trip.
  for (std::size_t v = 0; v < certificates->size(); ++v)
    if (!round_trips((*certificates)[v])) {
      std::ostringstream os;
      os << "certificate of vertex " << v << " changed under a bit-exact round trip";
      return violation(Oracle::kRoundTripMismatch, os.str());
    }

  // Oracle 8: every FeasibilitySolver backend is a pure speedup — the batch
  // prover must reproduce assign()'s certificates bit-for-bit under each of
  // them, from the cold pristine reference to the SAT core.
  {
    const auto mismatch = [&](const ProveResult& r) -> std::optional<std::string> {
      if (!r.certificates.has_value()) return "prove_assignment refused the yes-instance";
      for (std::size_t v = 0; v < certificates->size(); ++v)
        if (!((*r.certificates)[v] == (*certificates)[v]))
          return "vertex " + std::to_string(v) + " diverged from assign()";
      return std::nullopt;
    };
    for (const auto& info : solve::SolverFactory::registry()) {
      RunOptions opts;
      opts.num_threads = 1;
      opts.solver = info.backend;
      if (const auto why = mismatch(prove_assignment(scheme, g, opts)))
        return violation(Oracle::kSolverDivergence,
                         std::string(info.name) + ": " + *why);
    }
  }

  // Oracle 3 + 5: honest verification, and the batched path must agree with
  // the per-vertex path on every vertex.
  const ViewCache cache(g);
  const auto binding = cache.bind(*certificates);
  const std::size_t n = cache.vertex_count();
  std::vector<ViewRef> views(n);
  for (Vertex v = 0; v < n; ++v) views[v] = binding.view(v);
  std::vector<std::uint8_t> batch(n, 0);
  scheme.verify_batch(views, batch);
  for (Vertex v = 0; v < n; ++v) {
    const bool single = verify_single(scheme, views[v]);
    if (single != (batch[v] != 0)) {
      std::ostringstream os;
      os << "vertex " << v << ": verify()=" << single << " but verify_batch()="
         << (batch[v] != 0);
      return violation(Oracle::kBatchDivergence, os.str());
    }
    if (!single) {
      std::ostringstream os;
      os << "vertex " << v << " rejected the prover's own certificates";
      return violation(Oracle::kVerifierRejectedHonest, os.str());
    }
  }

  // Oracles 9 and 10, last (and in enum order) so their rng draws don't
  // shift the older oracles' streams.
  if (const auto hit = incremental_divergence(scheme, family, g, rng, attack_budget.solver))
    return *hit;
  if (const auto hit = box_index_divergence(scheme, rng)) return *hit;

  return out;
}

}  // namespace lcert::fuzz
