// End-to-end benchmark of the lcert pipeline.
//
//   lcert_e2e --workload tree-scale|edit-stream|registry-sweep --seed N
//             --seconds S --trace 0|1 [--out-dir DIR] [--self-test]
//
// Every workload sets up its schemes and instances from the seed, then runs
// whole rounds of five phases until S seconds have passed: cold prove
// (prove_assignment), verify (verify_assignment), an edit stream
// (incr::CertifiedInstance::apply), a soundness audit (run_soundness_audit
// with the standard plan) and one fuzz campaign per scheme of the workload
// (fuzz::run_campaign, trial-count mode). Every call uses the default
// RunOptions, as lcert_cli does; only the audit's trial budgets are cut on
// the large-n workloads. Each call's output is checked (see Checks below).
//
// --trace 0 prints the end-to-end metrics. --trace 1 makes the same untraced
// run, then restarts the edit streams and repeats the same rounds with the
// obs metrics registry and the trace sink enabled, a span around every
// library call, and a few extra calls that time single layers from outside
// (holds(), rooting, view binding, one audit strategy at a time, the
// automata's to_boxes). It prints the per-layer metrics and writes the
// library's and the benchmark's trace events as a Chrome trace, and a
// per-layer self-time table, to --out-dir. --self-test flips one bit in a prover
// certificate and one in a checkpoint's cold reference, runs one round, and
// exits 0 only when both surface as failed operations.
//
// The last line of stdout is one JSON object:
//   {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/edit_models.hpp"
#include "src/automata/library.hpp"
#include "src/cert/audit.hpp"
#include "src/cert/engine.hpp"
#include "src/cert/prove.hpp"
#include "src/fuzz/campaign.hpp"
#include "src/graph/rooted_tree.hpp"
#include "src/incr/incremental.hpp"
#include "src/obs/metrics.hpp"
#include "src/obs/trace.hpp"
#include "src/schemes/registry.hpp"
#include "src/util/parallel.hpp"

namespace lcert::bench {
namespace {

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// splitmix64 of a pair: independent seeds per (run seed, stream/round id).
std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// ---------------------------------------------------------------------------
// Spans: the benchmark's own spans around its calls into the library go to
// the library's trace sink (obs::TraceSpan), next to the library's events.
// They record only in the traced run; the name lookup takes the sink's lock,
// so untraced runs skip it.
// ---------------------------------------------------------------------------

std::uint32_t span_id(const char* name) {
  return obs::trace_enabled() ? obs::trace_sink().name_id(name) : 0;
}

/// Wall seconds of one library call, inside a span of the same name when
/// tracing.
template <typename F>
double timed(const char* name, F&& call) {
  obs::TraceSpan span(span_id(name));
  const auto t0 = Clock::now();
  call();
  return since(t0);
}

/// Structural spans group the calls (the traced run, a round, a phase); every
/// other span is a library call, a layer probe or a check. The traced run's
/// coverage is the share of its wall time outside the structural spans' own
/// time.
bool structural_span(const std::string& name) {
  return name == "workload" || name == "round" || name.rfind("phase.", 0) == 0;
}

// ---------------------------------------------------------------------------
// Checks. Every timed call and every standalone check is one operation; it
// fails when it throws or when any check on its output fails.
// ---------------------------------------------------------------------------

struct Tally {
  std::map<std::string, std::array<std::size_t, 2>> checks;  ///< attempted, failed
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> failures;  ///< first few, for the log
};

class Operation {
 public:
  explicit Operation(Tally& tally) : tally_(tally) {}
  ~Operation() {
    ++tally_.attempted;
    if (!ok_) ++tally_.failed;
  }
  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;

  bool check(const std::string& name, bool pass, const std::string& detail = "") {
    auto& c = tally_.checks[name];
    ++c[0];
    if (!pass) {
      ++c[1];
      ok_ = false;
      if (tally_.failures.size() < 20) tally_.failures.push_back(name + ": " + detail);
    }
    return pass;
  }

 private:
  Tally& tally_;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

enum class EditModel { kNone, kLeafChurn, kSubtreeRehang, kFamilyMutators };

/// One registered scheme in a workload: `copies` independent draws of its
/// family's yes-instance (all proved and verified every round) and
/// no-instance at size n. Every no-instance is audited every round, with its
/// copy's yes-certificates as template; the first copy's yes-instance starts
/// the edit stream.
struct SchemeUse {
  std::string key;
  std::size_t n = 0;
  bool prove_no_instance = false;  ///< the no-instances go through the prover too
  EditModel edits = EditModel::kNone;
  std::size_t edits_per_round = 0;
  std::size_t copies = 1;
};

struct WorkloadSpec {
  std::string name;
  std::vector<SchemeUse> uses;
  std::size_t prove_repeats = 1;   ///< prove calls per proved instance per round
  std::size_t verify_repeats = 1;  ///< verify calls per yes-instance per round
  RunOptions audit_options;
  std::size_t fuzz_trials = 1;  ///< per scheme of the workload per round
  std::size_t setup_repeats = 3;
  /// Graphs (with their IDs) and edit walks come from a fixed catalogue;
  /// --seed drives the audit and fuzz randomness only.
  bool catalogue = false;
};

/// Seed of the fixed catalogue (registry-sweep).
constexpr std::uint64_t kCatalogueSeed = 0x5eed;

/// A run has whole rounds until at least this many edits, so that at least
/// ten edit latencies lie beyond edit_us_p99.
constexpr std::size_t kMinEdits = 1000;

std::vector<WorkloadSpec> workloads() {
  std::vector<WorkloadSpec> out;

  // Cold certification at scale: the batch prover, the verify engine's
  // parallel path and the O(n^2) Prüfer decode in set-up. The caterpillar has
  // ~n/2 levels of <= 2 vertices, the random trees a few hundred wider ones
  // (none reaches kParallelAutoCutoff, so the prover's level loop stays
  // serial under the default thread setting).
  // Prove and verify carry most of a round's call time: every audit trial
  // verifies a whole 2^15-vertex no-instance, and one mso-leaves4 fuzz trial
  // costs as much as a prove call, so both run one trial each.
  // A third of the leaf-churn edits are O(n) prunes of ~1 ms; with twice as
  // many leaf-churn edits as rehangs they are a fifth of all edits, so
  // edit_us_p99 lies inside the prunes' spread and not on the edge of the
  // rarer multi-millisecond repairs (under 1% of grafts and rehangs), where
  // it jumped by 50% between runs.
  WorkloadSpec tree;
  tree.name = "tree-scale";
  tree.uses = {{"mso-leaves4", 32768, false, EditModel::kLeafChurn, 300},
               {"mso-perfect-matching", 32768, false, EditModel::kSubtreeRehang, 150},
               {"vertex-parity", 32768},
               {"mso-caterpillar", 65536}};
  tree.prove_repeats = 3;
  tree.verify_repeats = 10;
  tree.audit_options.random_trials = 1;
  tree.audit_options.mutation_trials = 1;
  tree.fuzz_trials = 1;
  tree.setup_repeats = 3;
  out.push_back(tree);

  // Live recertification: dirty-path repair, RootedTree patching and slice
  // re-verification carry most of a round's call time.
  WorkloadSpec stream;
  stream.name = "edit-stream";
  stream.uses = {{"mso-leaves4", 16384, false, EditModel::kLeafChurn, 3000},
                 {"mso-perfect-matching", 16384, false, EditModel::kSubtreeRehang, 3000}};
  stream.verify_repeats = 10;
  stream.audit_options.random_trials = 1;
  stream.audit_options.mutation_trials = 1;
  stream.fuzz_trials = 1;
  stream.setup_repeats = 3;
  out.push_back(stream);

  // Breadth at the CLI's scale: fixed costs per call, nothing fans out.
  WorkloadSpec sweep;
  sweep.name = "registry-sweep";
  // Walks of 10 edits per scheme and round; the three MSO schemes take the
  // incremental path at a few microseconds an edit and walk 100, so a run
  // reaches 1000 edits in a few rounds.
  for (const auto& entry : scheme_registry()) {
    const bool mso = entry.key.rfind("mso-", 0) == 0;
    sweep.uses.push_back({entry.key, 24, true, EditModel::kFamilyMutators, mso ? 100u : 10u, 8});
  }
  sweep.verify_repeats = 4;
  // The exact treedepth solver behind treedepth-4 and kernel-triangle-free
  // costs 19-130 ms on an 18-vertex instance and doubles per added vertex, so
  // a seed-drawn sample of the size a run affords moved prove_vps by ~10%
  // and edit_rate by ~20% between seeds. A fixed catalogue of shapes and
  // walks keeps those costs in the measurement and out of the seed noise.
  sweep.catalogue = true;
  sweep.fuzz_trials = 6;
  sweep.setup_repeats = 5;
  out.push_back(sweep);

  return out;
}

// ---------------------------------------------------------------------------
// Set-up: registry make(), instance generation and IDs, edit-stream
// preparation, CertifiedInstance::init — everything before the first timed
// call.
// ---------------------------------------------------------------------------

/// 2 + ceil(log2 |Q|): Thm 2.2's certificate width.
std::size_t mso_width(std::size_t states) {
  std::size_t bits = 0;
  while ((std::size_t{1} << bits) < states) ++bits;
  return 2 + bits;
}

struct Slot {
  const RegisteredScheme* entry = nullptr;
  std::unique_ptr<Scheme> scheme;
  const UOPAutomaton* automaton = nullptr;  ///< MSO schemes only
  const NamedAutomaton* named = nullptr;    ///< MSO schemes only
  std::size_t mso_bits = 0;                 ///< MSO schemes only
};

struct Instance {
  std::size_t slot = 0;
  Graph g;
  bool yes = false;
  bool proved = false;
  std::optional<std::vector<Certificate>> reference;  ///< assign(), from the reference checks
  std::optional<std::vector<Certificate>> last;       ///< latest prove_assignment output
  std::size_t max_bits = 0;                           ///< from the latest verify
};

struct AuditCase {
  std::size_t no = 0;   ///< the no-instance attacked
  std::size_t yes = 0;  ///< the yes-instance whose certificates are the template
  bool first_copy = false;  ///< the traced run's per-strategy probes use it too
};

struct Stream {
  std::size_t slot = 0;
  std::size_t start = 0;  ///< the yes-instance the stream starts from
  std::uint64_t seed = 0;
  EditModel model = EditModel::kNone;
  std::size_t edits_per_round = 0;
  std::unique_ptr<EditSource> source;
  std::unique_ptr<incr::CertifiedInstance> live;
};

struct Setup {
  std::vector<RegisteredScheme> registry;
  std::vector<NamedAutomaton> automata;
  std::vector<Slot> slots;  ///< one per registry entry, registry order
  std::vector<Instance> instances;
  std::vector<AuditCase> audits;
  std::vector<Stream> streams;
  std::vector<std::size_t> workload_slots;  ///< slots the workload's instances use
  double build_s = 0;
  double generate_s = 0;
};

std::size_t slot_of(const Setup& s, const std::string& key) {
  for (std::size_t i = 0; i < s.slots.size(); ++i)
    if (s.slots[i].entry->key == key) return i;
  throw std::invalid_argument("unknown scheme '" + key + "'");
}

/// Starts the stream again from its yes-instance: the same edit source
/// (same seed) and a freshly initialized CertifiedInstance.
void restart_stream(const Setup& s, Stream& st, Tally& tally) {
  const Graph& g = s.instances[st.start].g;
  const Slot& slot = s.slots[st.slot];
  switch (st.model) {
    case EditModel::kLeafChurn: st.source = make_leaf_churn(g, st.seed); break;
    case EditModel::kSubtreeRehang: st.source = make_subtree_rehang(g, st.seed); break;
    case EditModel::kFamilyMutators:
      st.source = make_family_mutations(*slot.entry, *slot.scheme, g, st.seed);
      break;
    case EditModel::kNone: break;
  }
  st.live = std::make_unique<incr::CertifiedInstance>(*slot.scheme);
  Operation op(tally);
  op.check("incr.init_certifies", st.live->init(s.instances[st.start].g).has_value(),
           s.slots[st.slot].entry->key);
}

std::unique_ptr<Setup> make_setup(const WorkloadSpec& w, std::uint64_t seed, Tally& tally) {
  auto s = std::make_unique<Setup>();
  {
    const auto t0 = Clock::now();
    s->registry = scheme_registry();
    s->automata = standard_tree_automata();
    for (const auto& entry : s->registry) {
      Slot slot;
      slot.entry = &entry;
      slot.scheme = entry.make();
      if (const auto surface = slot.scheme->run_forgery_surface();
          surface.has_value() && surface->automaton != nullptr) {
        slot.automaton = surface->automaton;
        slot.mso_bits = mso_width(slot.automaton->state_count);
        for (const auto& named : s->automata)
          if (slot.scheme->name() == "mso-tree[" + named.name + "]") slot.named = &named;
      }
      s->slots.push_back(std::move(slot));
    }
    s->build_s = since(t0);
  }

  {
    const auto t0 = Clock::now();
    Rng rng(seed);
    for (const SchemeUse& use : w.uses) {
      const std::size_t slot = slot_of(*s, use.key);
      const InstanceFamily& family = s->slots[slot].entry->family;
      s->workload_slots.push_back(slot);
      for (std::size_t c = 0; c < use.copies; ++c) {
        if (c == 0 && use.edits != EditModel::kNone) {
          Stream st;
          st.slot = slot;
          st.start = s->instances.size();
          st.seed = mix(w.catalogue ? kCatalogueSeed : seed, 1000 + s->streams.size());
          st.model = use.edits;
          st.edits_per_round = use.edits_per_round;
          s->streams.push_back(std::move(st));
        }
        Rng catalogue_rng(mix(kCatalogueSeed, 64 * slot + c));
        Rng& shape_rng = w.catalogue ? catalogue_rng : rng;
        Instance yes;
        yes.slot = slot;
        yes.g = family.yes_instance(use.n, shape_rng);
        yes.yes = true;
        yes.proved = true;
        Instance no;
        no.slot = slot;
        no.g = family.no_instance(use.n, shape_rng);
        no.proved = use.prove_no_instance;
        s->instances.push_back(std::move(yes));
        s->instances.push_back(std::move(no));
        s->audits.push_back({s->instances.size() - 1, s->instances.size() - 2, c == 0});
      }
    }
    s->generate_s = since(t0);
  }

  for (Stream& st : s->streams) restart_stream(*s, st, tally);
  return s;
}

// ---------------------------------------------------------------------------
// Measurements.
// ---------------------------------------------------------------------------

constexpr std::size_t kPhases = 5;
constexpr const char* kPhaseNames[kPhases] = {"prove", "verify", "edit", "audit", "fuzz"};

/// Work done and wall seconds spent by one call or by a round's calls.
struct PhaseWork {
  double work = 0;  ///< vertices, edits or trials
  double seconds = 0;
};

struct Measure {
  std::size_t rounds = 0;
  std::vector<std::array<double, kPhases>> round_call_s;  ///< Σ call seconds per phase
  std::vector<PhaseWork> round_edits;  ///< edits and Σ apply seconds per round
  /// Per phase: the fastest run of each repeated call (same instance, or
  /// same scheme's campaign, every round), keyed by instance, audit case or
  /// registry slot.
  std::array<std::map<std::size_t, PhaseWork>, kPhases> fastest;
  std::map<std::string, std::array<double, kPhases>> scheme_call_s;  ///< for the log

  double prove_s = 0;
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  solve::DecisionCounts feas;

  double verify_s = 0;
  double verify_worker_s = 0;  ///< Σ wall × workers

  std::vector<double> edit_us;
  std::map<EditKind, std::vector<double>> edit_us_by_kind;
  std::size_t full_reproves = 0;
  std::size_t fallback_edits = 0;
  /// Draws thrown away per scheme: holds() threw std::invalid_argument
  /// (outside the envelope), or turned false.
  std::map<std::string, std::array<std::size_t, 2>> redraws;
  double dirty_path = 0, reproved = 0, reverified = 0, changed = 0;

  std::size_t fuzz_skipped = 0;
  std::map<std::string, std::pair<double, std::size_t>> fuzz_by_scheme;  ///< s, trials asked

  // Traced runs only.
  double holds_s = 0;
  double root_levels_s = 0;
  double bind_s = 0;
  double to_boxes_s = 0;
  std::size_t fanout_levels = 0;
  std::map<std::string, std::pair<double, std::size_t>> audit_by_strategy;  ///< s, trials
  std::uint64_t box_probes = 0;
  std::uint64_t probed_vertices = 0;
  std::uint64_t busy_ns = 0;
  std::map<std::string, std::uint64_t> oracle_hits;
  obs::TraceSnapshot trace;  ///< every event of the traced rounds
};

/// Keeps the run of a repeated call that did the most work per second.
void note_call(Measure& m, std::size_t phase, std::size_t call, double work, double seconds) {
  PhaseWork& best = m.fastest[phase][call];
  if (best.seconds == 0 || work * best.seconds > best.work * seconds) best = {work, seconds};
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

using Counters = std::map<std::string, std::uint64_t>;

std::uint64_t counter_delta(const Counters& before, const Counters& after,
                            const std::string& name) {
  const auto get = [&name](const Counters& c) {
    const auto it = c.find(name);
    return it == c.end() ? std::uint64_t{0} : it->second;
  };
  return get(after) - get(before);
}

std::uint64_t prefix_delta(const Counters& before, const Counters& after,
                           const std::string& prefix) {
  std::uint64_t total = 0;
  for (const auto& [name, value] : after)
    if (name.rfind(prefix, 0) == 0) total += counter_delta(before, after, name);
  return total;
}

/// The obs counters at a phase boundary (traced runs only).
std::optional<Counters> counters_if(bool traced) {
  if (!traced) return std::nullopt;
  return obs::registry().counters_snapshot();
}

void reconcile(Tally& tally, const std::string& what, std::uint64_t program,
               std::uint64_t bench) {
  Operation op(tally);
  op.check("reconcile." + what, program == bench,
           "obs counter " + std::to_string(program) + " vs benchmark " +
               std::to_string(bench));
}

std::string kind_label(EditKind kind) {
  switch (kind) {
    case EditKind::kLeafGraft: return "graft";
    case EditKind::kLeafPrune: return "prune";
    case EditKind::kSubtreeSwap: return "swap";
    default: return edit_name(kind);
  }
}

bool all_width(const std::vector<Certificate>& certs, std::size_t bits) {
  for (const Certificate& c : certs)
    if (c.bit_size != bits) return false;
  return true;
}

void flip_first_bit(std::vector<Certificate>& certs) {
  for (Certificate& c : certs)
    if (c.bit_size > 0) {
      c.bytes[0] ^= 0x80u;
      return;
    }
}

struct RunContext {
  const WorkloadSpec& w;
  std::uint64_t seed;
  bool traced;
  bool self_test;
  Tally& tally;
};

// ---------------------------------------------------------------------------
// One-time checks, before the first round: holds() against the family's
// independent oracle where its size cap allows; assign() as the reference
// certificates; the serial prover reproduces them.
// ---------------------------------------------------------------------------

void reference_checks(Setup& s, Tally& tally) {
  RunOptions serial;
  serial.num_threads = 1;
  for (Instance& inst : s.instances) {
    const Slot& slot = s.slots[inst.slot];
    const InstanceFamily& family = slot.entry->family;
    const std::string& key = slot.entry->key;
    {
      Operation op(tally);
      try {
        const bool truth = slot.scheme->holds(inst.g);
        op.check("holds.matches_family", truth == inst.yes, key);
        if (family.has_reference_oracle && inst.g.vertex_count() <= family.reference_oracle_max_n)
          op.check("holds.matches_reference_oracle", family.reference_oracle(inst.g) == truth,
                   key);
      } catch (const std::exception& e) {
        op.check("holds.no_exception", false, key + ": " + e.what());
      }
    }
    if (!inst.yes) continue;
    Operation op(tally);
    try {
      inst.reference = slot.scheme->assign(inst.g);
      if (!op.check("assign.certifies_yes_instance", inst.reference.has_value(), key)) continue;
      const auto serial_certs = prove_assignment(*slot.scheme, inst.g, serial).certificates;
      op.check("prove.serial_matches_assign",
               serial_certs.has_value() && *serial_certs == *inst.reference, key);
    } catch (const std::exception& e) {
      op.check("assign.no_exception", false, key + ": " + e.what());
    }
  }
}

// ---------------------------------------------------------------------------
// The five phases of one round.
// ---------------------------------------------------------------------------

void prove_phase(Setup& s, RunContext& ctx, std::size_t round, Measure& m, double& call_s) {
  obs::TraceSpan phase(span_id("phase.prove"));
  const auto before = counters_if(ctx.traced);
  std::size_t calls = 0, hits = 0, misses = 0;
  bool flipped = false;
  for (std::size_t idx = 0; idx < s.instances.size(); ++idx) {
    Instance& inst = s.instances[idx];
    if (!inst.proved) continue;
    const Slot& slot = s.slots[inst.slot];
    const std::string& key = slot.entry->key;
    for (std::size_t r = 0; r < ctx.w.prove_repeats; ++r) {
      Operation op(ctx.tally);
      ProveResult res;
      try {
        const double t =
            timed("prove_assignment", [&] { res = prove_assignment(*slot.scheme, inst.g); });
        call_s += t;
        m.scheme_call_s[key][0] += t;
        note_call(m, 0, idx, static_cast<double>(inst.g.vertex_count()), t);
      } catch (const std::exception& e) {
        op.check("prove.no_exception", false, key + ": " + e.what());
        continue;
      }
      obs::TraceSpan check(span_id("check.prove"));
      ++calls;
      hits += res.memo_hits;
      misses += res.memo_misses;
      m.memo_hits += res.memo_hits;
      m.memo_misses += res.memo_misses;
      m.feas += res.feas;
      if (!inst.yes) {
        op.check("prove.refuses_no_instance", !res.certificates.has_value(), key);
        continue;
      }
      if (!op.check("prove.certifies_yes_instance", res.certificates.has_value(), key)) continue;
      if (ctx.self_test && round == 0 && !flipped) {
        flip_first_bit(*res.certificates);
        flipped = true;
      }
      if (slot.mso_bits != 0)
        op.check("prove.mso_width", all_width(*res.certificates, slot.mso_bits), key);
      op.check("prove.matches_assign",
               inst.reference.has_value() && *res.certificates == *inst.reference, key);
      inst.last = std::move(res.certificates);
    }
  }
  if (before.has_value()) {
    const auto after = obs::registry().counters_snapshot();
    reconcile(ctx.tally, "prove.calls", counter_delta(*before, after, "prover/prove_calls"),
              calls);
    reconcile(ctx.tally, "prove.memo_hits", counter_delta(*before, after, "prover/memo_hits"),
              hits);
    reconcile(ctx.tally, "prove.memo_misses",
              counter_delta(*before, after, "prover/memo_misses"), misses);
  }
}

void verify_phase(Setup& s, RunContext& ctx, Measure& m, double& call_s) {
  obs::TraceSpan phase(span_id("phase.verify"));
  const auto before = counters_if(ctx.traced);
  std::size_t calls = 0, vertices = 0;
  for (std::size_t idx = 0; idx < s.instances.size(); ++idx) {
    Instance& inst = s.instances[idx];
    if (!inst.yes) continue;
    const Slot& slot = s.slots[inst.slot];
    const std::string& key = slot.entry->key;
    for (std::size_t r = 0; r < ctx.w.verify_repeats; ++r) {
      Operation op(ctx.tally);
      if (!op.check("verify.has_certificates", inst.last.has_value(), key)) continue;
      VerificationOutcome out;
      double t = 0;
      try {
        t = timed("verify_assignment",
                  [&] { out = verify_assignment(*slot.scheme, inst.g, *inst.last); });
      } catch (const std::exception& e) {
        op.check("verify.no_exception", false, key + ": " + e.what());
        continue;
      }
      obs::TraceSpan check(span_id("check.verify"));
      const std::size_t n = inst.g.vertex_count();
      call_s += t;
      m.scheme_call_s[key][1] += t;
      note_call(m, 1, idx, static_cast<double>(n), t);
      ++calls;
      vertices += n;
      m.verify_worker_s += t * static_cast<double>(resolve_thread_count(0, n));
      op.check("verify.all_accept", out.all_accept,
               key + ": " + std::to_string(out.rejecting.size()) + " vertices reject");
      inst.max_bits = out.max_certificate_bits;
    }
  }
  if (before.has_value()) {
    const auto after = obs::registry().counters_snapshot();
    reconcile(ctx.tally, "verify.vertices",
              counter_delta(*before, after, "engine/vertices_verified"), vertices);
    reconcile(ctx.tally, "verify.calls", counter_delta(*before, after, "engine/verify_calls"),
              calls);
    m.box_probes += counter_delta(*before, after, "verify/box_probes");
    m.probed_vertices += counter_delta(*before, after, "engine/vertices_verified");
    m.busy_ns += counter_delta(*before, after, "engine/worker_busy_ns");
  }
}

void checkpoint(Setup& s, Stream& st, RunContext& ctx, bool inject) {
  obs::TraceSpan span(span_id("checkpoint"));
  const Slot& slot = s.slots[st.slot];
  const std::string& key = slot.entry->key;
  Operation op(ctx.tally);
  try {
    const Graph g = st.live->graph();
    op.check("checkpoint.model_in_sync", st.source->matches(g), key);
    auto cold = prove_assignment(*slot.scheme, g).certificates;
    if (inject && cold.has_value()) flip_first_bit(*cold);
    const auto& live = st.live->certificates();
    if (!op.check("checkpoint.certified", live.has_value(), key)) return;
    op.check("checkpoint.matches_cold", cold.has_value() && *cold == *live, key);
    op.check("checkpoint.verifies", verify_assignment(*slot.scheme, g, *live).all_accept, key);
    if (slot.mso_bits != 0)
      op.check("checkpoint.mso_width", all_width(*live, slot.mso_bits), key);
    const InstanceFamily& family = slot.entry->family;
    if (family.has_reference_oracle && g.vertex_count() <= family.reference_oracle_max_n)
      op.check("checkpoint.holds_matches_reference_oracle",
               family.reference_oracle(g) && slot.scheme->holds(g), key);
  } catch (const std::exception& e) {
    op.check("checkpoint.no_exception", false, key + ": " + e.what());
  }
}

void edit_phase(Setup& s, RunContext& ctx, std::size_t round, Measure& m, double& call_s) {
  obs::TraceSpan phase(span_id("phase.edit"));
  const auto before = counters_if(ctx.traced);
  std::size_t applied = 0;
  for (std::size_t i = 0; i < s.streams.size(); ++i) {
    Stream& st = s.streams[i];
    const std::string& key = s.slots[st.slot].entry->key;
    if (st.model == EditModel::kFamilyMutators && round > 0) {
      // Every round replays the same walk: a long walk drifts in n and in
      // shape, and the cold re-prove fallback's cost with it (the exact
      // treedepth solvers double per vertex), so rounds would not repeat.
      obs::TraceSpan restart(span_id("incr.restart"));
      restart_stream(s, st, ctx.tally);
    }
    const std::size_t envelope0 = st.source->envelope_redraws;
    const std::size_t property0 = st.source->property_redraws;
    for (std::size_t e = 0; e < st.edits_per_round; ++e) {
      Operation op(ctx.tally);
      GraphEdit edit;
      try {
        obs::TraceSpan draw(span_id("edit.model"));
        edit = st.source->next();
      } catch (const std::exception& ex) {
        op.check("edit.drawn", false, key + ": " + ex.what());
        continue;
      }
      IncrementalStats stats;
      double t = 0;
      try {
        t = timed("incr.apply", [&] { stats = st.live->apply(edit); });
      } catch (const std::exception& ex) {
        op.check("edit.no_exception", false, key + ": " + to_string(edit) + ": " + ex.what());
        continue;
      }
      {
        obs::TraceSpan model(span_id("edit.model"));
        st.source->applied();
      }
      ++applied;
      call_s += t;
      m.scheme_call_s[key][2] += t;
      m.edit_us.push_back(t * 1e6);
      m.edit_us_by_kind[edit.kind].push_back(t * 1e6);
      m.full_reproves += stats.full_reprove;
      m.fallback_edits += !st.live->incremental();
      m.dirty_path += static_cast<double>(stats.dirty_path_len);
      m.reproved += static_cast<double>(stats.reproved_vertices);
      m.reverified += static_cast<double>(stats.reverified_vertices);
      m.changed += static_cast<double>(stats.changed_certificates);
      const bool clean = stats.certified && stats.reverify_clean;
      const std::string where = clean ? key : key + ": " + to_string(edit);
      op.check("edit.certified", stats.certified, where);
      op.check("edit.reverify_clean", stats.reverify_clean, where);
    }
    auto& redraws = m.redraws[key];
    redraws[0] += st.source->envelope_redraws - envelope0;
    redraws[1] += st.source->property_redraws - property0;
    checkpoint(s, st, ctx, ctx.self_test && round == 0 && i == 0);
  }
  if (before.has_value()) {
    const auto after = obs::registry().counters_snapshot();
    reconcile(ctx.tally, "edit.applies", counter_delta(*before, after, "incr/edits"), applied);
  }
}

void audit_phase(Setup& s, RunContext& ctx, std::size_t round, Measure& m, double& call_s) {
  obs::TraceSpan phase(span_id("phase.audit"));
  const auto before = counters_if(ctx.traced);
  std::size_t trials = 0;
  for (std::size_t i = 0; i < s.audits.size(); ++i) {
    const Instance& no = s.instances[s.audits[i].no];
    const Instance& yes = s.instances[s.audits[i].yes];
    const Slot& slot = s.slots[no.slot];
    const std::string& key = slot.entry->key;
    Operation op(ctx.tally);
    Rng rng(mix(ctx.seed, 100000 * round + i));
    SoundnessAuditReport report;
    double t = 0;
    try {
      t = timed("run_soundness_audit", [&] {
        report = run_soundness_audit(*slot.scheme, no.g, yes.last ? &*yes.last : nullptr, rng,
                                     ctx.w.audit_options);
      });
      call_s += t;
      m.scheme_call_s[key][3] += t;
    } catch (const std::exception& e) {
      op.check("audit.no_exception", false, key + ": " + e.what());
      continue;
    }
    std::size_t executed = 0;
    bool forged = report.forgery.has_value();
    for (const AttackOutcome& out : report.outcomes) {
      executed += out.trials;
      forged = forged || out.forged;
    }
    trials += executed;
    note_call(m, 3, i, static_cast<double>(executed), t);
    op.check("audit.no_forgery", !forged,
             key + ": forged via " + (report.forgery ? report.forgery->attack : "?"));
  }
  if (before.has_value()) {
    const auto after = obs::registry().counters_snapshot();
    reconcile(ctx.tally, "audit.trials", prefix_delta(*before, after, "audit/trials/"), trials);
  }
}

void fuzz_phase(Setup& s, RunContext& ctx, Measure& m, double& call_s) {
  obs::TraceSpan phase(span_id("phase.fuzz"));
  const auto before = counters_if(ctx.traced);
  std::size_t run = 0, skipped = 0;
  std::map<std::string, std::uint64_t> hits;
  for (const std::size_t i : s.workload_slots) {
    const Slot& slot = s.slots[i];
    const std::string& key = slot.entry->key;
    Operation op(ctx.tally);
    // The same campaign every round and every run: a no-leaning leaves>=4
    // trial costs ~1.5x a yes-leaning one, and a seed-drawn mix of a few
    // dozen trials moved fuzz_trials_per_s by ~12% between seeds.
    fuzz::CampaignOptions options;
    options.seed = mix(kCatalogueSeed, 200000 + i);
    options.trials = ctx.w.fuzz_trials;
    fuzz::CampaignResult result;
    double t = 0;
    try {
      t = timed("fuzz.run_campaign",
                [&] { result = fuzz::run_campaign(*slot.scheme, slot.entry->family, options); });
    } catch (const std::exception& e) {
      op.check("fuzz.no_exception", false, key + ": " + e.what());
      continue;
    }
    call_s += t;
    m.scheme_call_s[key][4] += t;
    note_call(m, 4, i, static_cast<double>(result.stats.trials_run), t);
    run += result.stats.trials_run;
    skipped += result.stats.trials_skipped;
    m.fuzz_skipped += result.stats.trials_skipped;
    auto& per = m.fuzz_by_scheme[key];
    per.first += t;
    per.second += options.trials;
    for (const auto& f : result.findings) ++hits[fuzz::oracle_name(f.oracle)];
    op.check("fuzz.no_findings", result.findings.empty(),
             key + (result.findings.empty()
                        ? std::string()
                        : ": " + fuzz::oracle_name(result.findings[0].oracle) + " at trial " +
                              std::to_string(result.findings[0].trial)));
  }
  if (before.has_value()) {
    const auto after = obs::registry().counters_snapshot();
    reconcile(ctx.tally, "fuzz.trials", counter_delta(*before, after, "fuzz/trials"), run);
    reconcile(ctx.tally, "fuzz.skips", counter_delta(*before, after, "fuzz/skips"), skipped);
    for (std::size_t o = 0; o <= static_cast<std::size_t>(fuzz::Oracle::kBoxIndexDivergence);
         ++o) {
      const std::string name = fuzz::oracle_name(static_cast<fuzz::Oracle>(o));
      const std::uint64_t delta = counter_delta(*before, after, "fuzz/oracle/" + name);
      m.oracle_hits[name] += delta;
      reconcile(ctx.tally, "fuzz.oracle." + name, delta, hits[name]);
    }
  }
}

/// Traced runs only: single layers timed from outside through their public
/// functions — holds(), rooting + levels, view binding, each audit strategy
/// alone, and (first round) every MSO automaton's to_boxes.
void layer_phase(Setup& s, RunContext& ctx, std::size_t round, Measure& m) {
  obs::TraceSpan phase(span_id("phase.layers"));
  if (round == 0) {
    std::vector<std::size_t> done;
    for (std::size_t slot_index : s.workload_slots) {
      const Slot& slot = s.slots[slot_index];
      if (slot.automaton == nullptr ||
          std::find(done.begin(), done.end(), slot_index) != done.end())
        continue;
      done.push_back(slot_index);
      const UOPAutomaton& a = *slot.automaton;
      m.to_boxes_s += timed("automata.to_boxes", [&] {
        for (std::size_t q = 0; q < a.state_count; ++q)
          (void)a.transition(q, 0).to_boxes(a.state_count);
      });
    }
  }
  for (Instance& inst : s.instances) {
    if (!inst.yes) continue;
    const Slot& slot = s.slots[inst.slot];
    Operation op(ctx.tally);
    bool holds = false;
    m.holds_s += timed("schemes.holds", [&] { holds = slot.scheme->holds(inst.g); });
    op.check("layers.holds", holds, slot.entry->key);
    if (slot.named != nullptr) {
      const auto roots = slot.named->good_roots(inst.g);
      std::vector<std::vector<std::size_t>> levels;
      m.root_levels_s += timed("graph.root_levels", [&] {
        const RootedTree t = RootedTree::from_graph(inst.g, roots.empty() ? 0 : roots[0]);
        levels = t.levels();
      });
      if (round == 0)
        for (const auto& level : levels) m.fanout_levels += level.size() >= kParallelAutoCutoff;
    }
    if (inst.last.has_value())
      m.bind_s += timed("cert.verify.bind", [&] {
        const ViewCache cache(inst.g);
        const auto binding = cache.bind(*inst.last);
        (void)binding;
      });
  }
  for (std::size_t i = 0; i < s.audits.size(); ++i) {
    if (!s.audits[i].first_copy) continue;
    const Instance& no = s.instances[s.audits[i].no];
    const Instance& yes = s.instances[s.audits[i].yes];
    const Slot& slot = s.slots[no.slot];
    for (const AttackStrategy& strategy : standard_attack_plan(ctx.w.audit_options)) {
      Operation op(ctx.tally);
      const std::vector<AttackStrategy> plan{strategy};
      Rng rng(mix(ctx.seed, 100000 * round + i));
      SoundnessAuditReport report;
      const double t = timed("cert.audit.strategy", [&] {
        report = run_soundness_audit(*slot.scheme, no.g, yes.last ? &*yes.last : nullptr, rng,
                                     ctx.w.audit_options, &plan);
      });
      auto& per = m.audit_by_strategy[strategy.name];
      per.first += t;
      for (const AttackOutcome& out : report.outcomes) per.second += out.trials;
      op.check("layers.audit_no_forgery", !report.forgery.has_value(),
               slot.entry->key + " " + strategy.name);
    }
  }
}

/// Moves the trace sink's events (the library's and the benchmark's spans)
/// into `into`. Names only grow, so the latest list names every event.
void drain_trace(obs::TraceSnapshot& into) {
  obs::TraceSnapshot snap = obs::trace_sink().take();
  into.names = std::move(snap.names);
  into.events.insert(into.events.end(), snap.events.begin(), snap.events.end());
  into.dropped += snap.dropped;
}

void run_round(Setup& s, RunContext& ctx, std::size_t round, Measure& m) {
  obs::TraceSpan span(span_id("round"));
  const std::size_t edits_before = m.edit_us.size();
  std::array<double, kPhases> call_s{};
  prove_phase(s, ctx, round, m, call_s[0]);
  verify_phase(s, ctx, m, call_s[1]);
  edit_phase(s, ctx, round, m, call_s[2]);
  audit_phase(s, ctx, round, m, call_s[3]);
  fuzz_phase(s, ctx, m, call_s[4]);
  if (ctx.traced) {
    layer_phase(s, ctx, round, m);
    obs::TraceSpan drain(span_id("obs.drain"));
    drain_trace(m.trace);
  }
  m.prove_s += call_s[0];
  m.verify_s += call_s[1];
  m.round_call_s.push_back(call_s);
  m.round_edits.push_back({static_cast<double>(m.edit_us.size() - edits_before), call_s[2]});
  ++m.rounds;
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string result_json(const Tally& tally, const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted << ", \"failed\": " << tally.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << format_number(metrics[i].value) << ", \"unit\": \"" << metrics[i].unit << "\"}";
  os << "}}";
  return os.str();
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Σ work ÷ Σ wall seconds over the fastest run of each repeated call. Every
/// round repeats the same calls on the same instances, and on a shared host
/// other tenants slow single calls by up to 2× at random; the fastest of a
/// call's repeats is the cost of the code, the rest is the host's noise.
double fastest_rate(const Measure& m, std::size_t phase) {
  double work = 0, seconds = 0;
  for (const auto& [call, best] : m.fastest[phase]) {
    work += best.work;
    seconds += best.seconds;
  }
  return ratio(work, seconds);
}

/// Median over rounds of edits per apply second. Each round applies new
/// edits of the same mix, so there is no repeated call to take the fastest
/// of; the median keeps a round the host stalled from moving the rate.
double edit_rate(const Measure& m) {
  std::vector<double> rates;
  for (const PhaseWork& round : m.round_edits) rates.push_back(ratio(round.work, round.seconds));
  return median(std::move(rates));
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::vector<Metric> end_to_end_metrics(const Setup& s, const Measure& m,
                                       const std::vector<double>& setup_times) {
  // Σ over the workload's schemes of the largest certificate on its
  // yes-instances.
  std::map<std::size_t, std::size_t> max_bits;
  for (const Instance& inst : s.instances)
    if (inst.yes) max_bits[inst.slot] = std::max(max_bits[inst.slot], inst.max_bits);
  std::size_t cert_bits = 0;
  for (const auto& [slot, bits] : max_bits) cert_bits += bits;
  return {
      {"setup_s", median(setup_times), "s"},
      {"prove_vps", fastest_rate(m, 0), "vertices/s"},
      {"verify_vps", fastest_rate(m, 1), "vertices/s"},
      {"edit_rate", edit_rate(m), "edits/s"},
      {"edit_us_p50", percentile(m.edit_us, 0.50), "us"},
      {"edit_us_p99", percentile(m.edit_us, 0.99), "us"},
      {"audit_trials_per_s", fastest_rate(m, 3), "trials/s"},
      {"fuzz_trials_per_s", fastest_rate(m, 4), "trials/s"},
      {"cert_bits", static_cast<double>(cert_bits), "bits"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

std::vector<Metric> per_layer_metrics(const Setup& s, const Measure& traced,
                                      const Measure& plain, double setup_generate_s,
                                      double setup_build_s, double coverage) {
  const double rounds = static_cast<double>(std::max<std::size_t>(traced.rounds, 1));
  const double edits = static_cast<double>(std::max<std::size_t>(traced.edit_us.size(), 1));
  std::vector<Metric> out = {
      {"graph.generate_s", setup_generate_s, "s"},
      {"graph.root_levels_s", traced.root_levels_s / rounds, "s"},
      {"schemes.build_s", setup_build_s, "s"},
      {"schemes.holds_s", traced.holds_s / rounds, "s"},
      {"automata.to_boxes_s", traced.to_boxes_s, "s"},
      {"automata.box_probes_per_vertex",
       ratio(static_cast<double>(traced.box_probes), static_cast<double>(traced.probed_vertices)),
       "probes/vertex"},
      {"solve.decisions.pruned", static_cast<double>(traced.feas.pruned) / rounds, "count"},
      {"solve.decisions.greedy", static_cast<double>(traced.feas.greedy) / rounds, "count"},
      {"solve.decisions.warm", static_cast<double>(traced.feas.warm) / rounds, "count"},
      {"solve.decisions.flow", static_cast<double>(traced.feas.flow) / rounds, "count"},
      {"solve.decisions.sat", static_cast<double>(traced.feas.sat) / rounds, "count"},
      {"cert.prove.s", traced.prove_s / rounds, "s"},
      {"cert.prove.memo_hits", static_cast<double>(traced.memo_hits) / rounds, "count"},
      {"cert.prove.memo_misses", static_cast<double>(traced.memo_misses) / rounds, "count"},
      {"cert.prove.memo_hit_ratio",
       ratio(static_cast<double>(traced.memo_hits),
             static_cast<double>(traced.memo_hits + traced.memo_misses)),
       "ratio"},
      {"cert.verify.s", traced.verify_s / rounds, "s"},
      {"cert.verify.bind_s", traced.bind_s / rounds, "s"},
      {"cert.verify.busy_ratio", ratio(static_cast<double>(traced.busy_ns) * 1e-9,
                                       traced.verify_worker_s),
       "ratio"},
      {"util.parallel.fanout_levels", static_cast<double>(traced.fanout_levels), "count"},
  };
  for (EditKind kind : {EditKind::kLeafGraft, EditKind::kLeafPrune, EditKind::kSubtreeSwap}) {
    const auto it = traced.edit_us_by_kind.find(kind);
    out.push_back({"incr.apply_us_p50." + kind_label(kind),
                   it == traced.edit_us_by_kind.end() ? 0 : percentile(it->second, 0.5), "us"});
  }
  out.push_back({"incr.dirty_path_len", traced.dirty_path / edits, "count"});
  out.push_back({"incr.reproved_vertices", traced.reproved / edits, "count"});
  out.push_back({"incr.reverified_vertices", traced.reverified / edits, "count"});
  out.push_back({"incr.changed_certs", traced.changed / edits, "count"});
  out.push_back({"incr.full_reproves", static_cast<double>(traced.full_reproves) / rounds,
                 "count"});
  out.push_back({"incr.fallback_edits", static_cast<double>(traced.fallback_edits) / rounds,
                 "count"});
  for (const AttackStrategy& strategy : standard_attack_plan(RunOptions{})) {
    const auto it = traced.audit_by_strategy.find(strategy.name);
    const double sec = it == traced.audit_by_strategy.end() ? 0 : it->second.first;
    const double trials = it == traced.audit_by_strategy.end() ? 0 : it->second.second;
    out.push_back({"cert.audit." + strategy.name + ".s", sec / rounds, "s"});
    out.push_back({"cert.audit." + strategy.name + ".trials", trials / rounds, "count"});
  }
  for (const Slot& slot : s.slots) {
    const auto it = traced.fuzz_by_scheme.find(slot.entry->key);
    const double ms = it == traced.fuzz_by_scheme.end()
                          ? 0
                          : ratio(it->second.first * 1e3, static_cast<double>(it->second.second));
    out.push_back({"fuzz.ms_per_trial." + slot.entry->key, ms, "ms"});
  }
  for (std::size_t o = 0; o <= static_cast<std::size_t>(fuzz::Oracle::kBoxIndexDivergence); ++o) {
    const std::string name = fuzz::oracle_name(static_cast<fuzz::Oracle>(o));
    const auto it = traced.oracle_hits.find(name);
    out.push_back({"fuzz.oracle." + name,
                   it == traced.oracle_hits.end() ? 0 : static_cast<double>(it->second),
                   "count"});
  }
  out.push_back({"fuzz.trials_skipped", static_cast<double>(traced.fuzz_skipped) / rounds,
                 "count"});

  // Tracing overhead per phase: Σ call time over the same rounds, traced vs
  // untraced (the traced run repeats the untraced run's first rounds).
  std::array<double, kPhases> t{}, u{};
  for (std::size_t r = 0; r < traced.rounds && r < plain.rounds; ++r)
    for (std::size_t p = 0; p < kPhases; ++p) {
      t[p] += traced.round_call_s[r][p];
      u[p] += plain.round_call_s[r][p];
    }
  double t_all = 0, u_all = 0;
  for (std::size_t p = 0; p < kPhases; ++p) {
    out.push_back({std::string("obs.traced_overhead_pct.") + kPhaseNames[p],
                   100.0 * (ratio(t[p], u[p]) - 1.0), "%"});
    t_all += t[p];
    u_all += u[p];
  }
  out.push_back({"obs.traced_overhead_pct", 100.0 * (ratio(t_all, u_all) - 1.0), "%"});
  out.push_back({"obs.span_coverage_pct", 100.0 * coverage, "%"});
  return out;
}

/// Share of the traced run's wall time (the "workload" span) that the
/// structural spans do not keep as their own time: the time inside library
/// calls, layer probes, checks and trace drains.
double span_coverage(const std::vector<obs::TraceRollupRow>& rows) {
  double wall_ms = 0, structural_self_ms = 0;
  for (const auto& row : rows) {
    if (row.name == "workload") wall_ms = row.total_ms;
    if (structural_span(row.name)) structural_self_ms += row.self_ms;
  }
  return wall_ms > 0 ? 1.0 - structural_self_ms / wall_ms : 0;
}

/// Per-layer table of the traced run: count, total and self time per span
/// name, the library's own spans included, by self time.
std::string layer_table(std::vector<obs::TraceRollupRow> rows) {
  std::sort(rows.begin(), rows.end(),
            [](const auto& a, const auto& b) { return a.self_ms > b.self_ms; });
  std::ostringstream os;
  char line[200];
  std::snprintf(line, sizeof line, "%-34s %9s %12s %12s %12s\n", "span", "count", "total_s",
                "self_s", "max_ms");
  os << line;
  for (const auto& row : rows) {
    std::snprintf(line, sizeof line, "%-34s %9llu %12.6f %12.6f %12.3f\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.count), row.total_ms / 1e3,
                  row.self_ms / 1e3, row.max_ms);
    os << line;
  }
  return os.str();
}

void print_tally(const Tally& tally) {
  std::fprintf(stderr, "%-44s %10s %8s\n", "check", "attempted", "failed");
  for (const auto& [name, c] : tally.checks)
    std::fprintf(stderr, "%-44s %10zu %8zu\n", name.c_str(), c[0], c[1]);
  for (const std::string& f : tally.failures) std::fprintf(stderr, "FAILED %s\n", f.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool self_test = false;
  std::string out_dir = ".bench_out";
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      a.self_test = true;
      continue;
    }
    if (i + 1 >= argc) return std::nullopt;
    const std::string value = argv[++i];
    if (flag == "--workload") a.workload = value;
    else if (flag == "--seed") a.seed = std::stoull(value);
    else if (flag == "--seconds") a.seconds = std::stod(value);
    else if (flag == "--trace") a.trace = value == "1";
    else if (flag == "--out-dir") a.out_dir = value;
    else return std::nullopt;
  }
  if (a.workload.empty()) return std::nullopt;
  return a;
}

std::size_t rounds_for_min_edits(const WorkloadSpec& w) {
  std::size_t per_round = 0;
  for (const SchemeUse& use : w.uses) per_round += use.edits_per_round;
  return per_round == 0 ? 1 : (kMinEdits + per_round - 1) / per_round;
}

int run(const Args& a) {
  const auto specs = workloads();
  const WorkloadSpec* w = nullptr;
  for (const auto& spec : specs)
    if (spec.name == a.workload) w = &spec;
  if (w == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'; valid: tree-scale edit-stream registry-sweep\n",
                 a.workload.c_str());
    return 2;
  }
  Tally tally;

  // Set-up, repeated; the median is setup_s. The last one is kept.
  std::vector<double> setup_times, generate_times, build_times;
  std::unique_ptr<Setup> s;
  const std::size_t repeats = a.self_test ? 1 : w->setup_repeats;
  for (std::size_t k = 0; k < repeats; ++k) {
    s.reset();
    const auto t0 = Clock::now();
    s = make_setup(*w, a.seed, tally);
    setup_times.push_back(since(t0));
    generate_times.push_back(s->generate_s);
    build_times.push_back(s->build_s);
  }
  reference_checks(*s, tally);

  RunContext ctx{*w, a.seed, false, a.self_test, tally};
  Measure m;
  const std::size_t min_rounds = a.self_test ? 1 : rounds_for_min_edits(*w);
  const auto start = Clock::now();
  while (m.rounds < min_rounds || (!a.self_test && since(start) < a.seconds))
    run_round(*s, ctx, m.rounds, m);
  const double measured_s = since(start);
  const auto e2e = end_to_end_metrics(*s, m, setup_times);
  std::fprintf(stderr, "%s seed %llu: %zu rounds, %zu edits in %.2f s; setup %.3f s (x%zu)\n",
               w->name.c_str(), static_cast<unsigned long long>(a.seed), m.rounds,
               m.edit_us.size(), measured_s, median(setup_times), setup_times.size());
  for (const Metric& metric : e2e)
    std::fprintf(stderr, "  %-20s %14.4f %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  std::fprintf(stderr, "%-24s %9s %9s %9s %9s %9s  (call seconds per phase)\n", "scheme",
               kPhaseNames[0], kPhaseNames[1], kPhaseNames[2], kPhaseNames[3], kPhaseNames[4]);
  for (const auto& [key, sec] : m.scheme_call_s)
    std::fprintf(stderr, "%-24s %9.4f %9.4f %9.4f %9.4f %9.4f\n", key.c_str(), sec[0], sec[1],
                 sec[2], sec[3], sec[4]);
  for (const auto& [key, r] : m.redraws)
    if (r[0] + r[1] > 0)
      std::fprintf(stderr, "%-24s edit draws redrawn: %zu outside the envelope, %zu property-breaking\n",
                   key.c_str(), r[0], r[1]);

  if (a.self_test) {
    print_tally(tally);
    const auto failed = [&](const char* name) {
      const auto it = tally.checks.find(name);
      return it == tally.checks.end() ? std::size_t{0} : it->second[1];
    };
    std::size_t failed_checks = 0;
    for (const auto& [name, c] : tally.checks) failed_checks += c[1];
    const bool caught =
        failed("prove.matches_assign") >= 1 && failed("checkpoint.matches_cold") >= 1;
    // The flipped prover certificate may also make a vertex reject.
    const bool only_injected = failed_checks == failed("prove.matches_assign") +
                                                    failed("verify.all_accept") +
                                                    failed("checkpoint.matches_cold");
    std::fprintf(stderr, "self-test: %s\n",
                 caught && only_injected ? "both injected faults surfaced as failed operations"
                                         : "FAILED: an injected fault passed unnoticed");
    std::printf("%s\n", result_json(tally, e2e).c_str());
    return caught && only_injected ? 0 : 1;
  }

  if (!a.trace) {
    print_tally(tally);
    std::printf("%s\n", result_json(tally, e2e).c_str());
    return 0;
  }

  // Traced run: the same rounds again on the same instances, every stream
  // restarted from its yes-instance, obs on.
  obs::registry().set_enabled(true);
  obs::trace_sink().set_enabled(true);
  Measure traced;
  {
    obs::TraceSpan root(span_id("workload"));
    for (Stream& st : s->streams) {
      obs::TraceSpan restart(span_id("incr.restart"));
      restart_stream(*s, st, tally);
    }
    RunContext tctx{*w, a.seed, true, false, tally};
    while (traced.rounds < m.rounds) run_round(*s, tctx, traced.rounds, traced);
  }
  obs::trace_sink().set_enabled(false);
  obs::registry().set_enabled(false);
  drain_trace(traced.trace);

  const auto rows = obs::trace_rollup(traced.trace);
  const double coverage = span_coverage(rows);
  {
    Operation op(tally);
    op.check("trace.span_coverage_95pct", coverage >= 0.95,
             format_number(100 * coverage) + "% of the traced wall time");
    op.check("trace.no_dropped_events", traced.trace.dropped == 0,
             std::to_string(traced.trace.dropped) + " events dropped");
  }
  const std::string stem = a.out_dir + "/" + w->name + "-seed" + std::to_string(a.seed);
  const std::string table = layer_table(rows);
  std::ofstream(stem + ".trace.json") << obs::chrome_trace_json(traced.trace);
  std::ofstream(stem + ".layers.txt") << table;
  std::fprintf(stderr, "traced: %zu rounds, %zu trace events, span coverage %.2f%%\n%s",
               traced.rounds, traced.trace.events.size(), 100 * coverage, table.c_str());
  const auto layers =
      per_layer_metrics(*s, traced, m, median(generate_times), median(build_times), coverage);
  for (const Metric& metric : layers)
    std::fprintf(stderr, "  %-42s %14.6g %s\n", metric.name.c_str(), metric.value,
                 metric.unit.c_str());
  print_tally(tally);
  std::printf("%s\n", result_json(tally, layers).c_str());
  return 0;
}

}  // namespace
}  // namespace lcert::bench

int main(int argc, char** argv) {
  const auto args = lcert::bench::parse_args(argc, argv);
  if (!args.has_value()) {
    std::fprintf(stderr,
                 "usage: lcert_e2e --workload tree-scale|edit-stream|registry-sweep "
                 "--seed N --seconds S --trace 0|1 [--out-dir DIR] [--self-test]\n");
    return 2;
  }
  try {
    return lcert::bench::run(*args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
}
