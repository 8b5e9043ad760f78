// The differential oracle battery (DESIGN.md §10).
//
// One fuzz trial = one instance, classified by the scheme's own holds()
// (ground truth), then pushed through every cross-check that can catch a bug
// without a second ground truth — plus the reference-oracle check when the
// family ships an independent implementation of the property. Every oracle
// is a *difference* between two things that must agree; a hit is a library
// bug by construction, never a flaky heuristic.
//
// Oracle table:
//   reference-disagreement    holds(g) != family.reference_oracle(g)
//   prover-refused-yes        holds(g) but assign(g) returned nullopt
//   verifier-rejected-honest  honest certificates rejected at some vertex
//   prover-certified-no       assign(g) produced certificates although
//                             !holds(g) (contract: nullopt on no-instances)
//   batch-divergence          verify_batch decided some vertex differently
//                             from per-vertex verify
//   round-trip-mismatch       a certificate did not survive a bit-exact
//                             BitReader -> BitWriter round trip
//   soundness-forgery         attack_soundness forged an accepting
//                             assignment on a no-instance
//   solver-divergence         prove_assignment under some FeasibilitySolver
//                             backend (greedy / cold-flow / sat)
//                             did not reproduce assign()'s certificates
//                             bit-for-bit
//   incremental-divergence    a CertifiedInstance driven by streaming edits
//                             diverged from a cold full re-prove of the
//                             accumulated graph (certificates must stay
//                             bit-identical after every edit), or its
//                             radius-1 re-verification of the changed slice
//                             rejected
//   box-index-divergence      a per-state BoxIndex of the scheme answered
//                             differently from a reference: first match vs
//                             an IntervalBox::contains sweep, canonical-DNF
//                             membership vs the constraint's eval(), or
//                             decide_first vs a full per-box decide sweep
#pragma once

#include <optional>
#include <string>

#include "src/cert/options.hpp"
#include "src/cert/scheme.hpp"
#include "src/schemes/registry.hpp"
#include "src/util/rng.hpp"

namespace lcert::fuzz {

enum class Oracle {
  kReferenceDisagreement,
  kProverRefusedYesInstance,
  kVerifierRejectedHonest,
  kProverCertifiedNoInstance,
  kBatchDivergence,
  kRoundTripMismatch,
  kSoundnessForgery,
  kSolverDivergence,
  kIncrementalDivergence,
  kBoxIndexDivergence,
};

/// Stable display name (appears in reports and repro files).
std::string oracle_name(Oracle oracle);

struct Violation {
  Oracle oracle;
  std::string detail;  ///< human-readable specifics (vertex, attack name, ...)
};

struct CheckOutcome {
  /// True when the instance fell outside the scheme's promise or feasibility
  /// envelope (holds() threw std::invalid_argument) — not a bug, the trial
  /// just doesn't apply.
  bool skipped = false;
  bool ground_truth = false;  ///< holds(g), valid when !skipped
  std::optional<Violation> violation;
};

/// Runs the full battery on one instance. `rng` drives the soundness attack
/// (pass a trial-seeded Rng for replayability); `attack_budget` bounds it
/// (random_trials / mutation_trials / max_random_bits / try_replay;
/// num_threads should be 1 — campaign parallelism lives at the trial level).
CheckOutcome check_instance(const Scheme& scheme, const InstanceFamily& family,
                            const Graph& g, Rng& rng,
                            const RunOptions& attack_budget);

}  // namespace lcert::fuzz
