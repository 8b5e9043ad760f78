// The local certification model (Section 3.3).
//
// A scheme is a pair (prover, verifier). The prover sees the whole graph and
// assigns one certificate per vertex; the verifier is strictly local with
// radius exactly 1 (Appendix A.1): a vertex sees its own ID and certificate
// plus the IDs and certificates of its neighbors — crucially NOT the edges
// among the neighbors, and not n. Completeness and soundness are the paper's:
// yes-instances have an accepting assignment, no-instances have none.
//
// Verifiers consume a non-owning ViewRef: certificates are borrowed from the
// assignment (or from a ViewCache binding), never copied per vertex. The
// owning View remains as a thin adapter for tests and for verifiers that
// synthesize sub-views from decoded material.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "src/automata/box_index.hpp"
#include "src/cert/options.hpp"
#include "src/graph/edit.hpp"
#include "src/graph/graph.hpp"
#include "src/obs/metrics.hpp"
#include "src/util/bitio.hpp"

namespace lcert {

class ProverContext;   // src/cert/prove.hpp
struct UOPAutomaton;   // src/automata/uop_automaton.hpp

/// The bytes of a certificate. Up to kInline bytes (every MSO certificate,
/// and the O(log n)-bit ones at the sizes the repo runs) live inside the
/// object, so an assignment of n certificates is one allocation instead of
/// n + 1 and 32 bytes per vertex instead of 64. Longer strings go to the heap.
class CertBytes {
 public:
  static constexpr std::size_t kInline = 16;
  using value_type = std::uint8_t;
  using iterator = std::uint8_t*;
  using const_iterator = const std::uint8_t*;

  CertBytes() noexcept {}
  explicit CertBytes(std::span<const std::uint8_t> b) : size_(b.size()) {
    if (size_ > kInline) heap_ = new std::uint8_t[size_];
    std::copy(b.begin(), b.end(), data());
  }
  CertBytes(const CertBytes& o) : CertBytes(o.span()) {}
  CertBytes(CertBytes&& o) noexcept : size_(o.size_) {
    steal(o);
  }
  CertBytes& operator=(const CertBytes& o) {
    if (this != &o) *this = CertBytes(o);
    return *this;
  }
  CertBytes& operator=(CertBytes&& o) noexcept {
    if (this != &o) {
      release();
      size_ = o.size_;
      steal(o);
    }
    return *this;
  }
  ~CertBytes() { release(); }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }
  std::uint8_t* data() noexcept { return size_ > kInline ? heap_ : inline_; }
  const std::uint8_t* data() const noexcept { return size_ > kInline ? heap_ : inline_; }
  std::uint8_t& operator[](std::size_t i) noexcept { return data()[i]; }
  std::uint8_t operator[](std::size_t i) const noexcept { return data()[i]; }
  iterator begin() noexcept { return data(); }
  iterator end() noexcept { return data() + size_; }
  const_iterator begin() const noexcept { return data(); }
  const_iterator end() const noexcept { return data() + size_; }
  std::span<const std::uint8_t> span() const noexcept { return {data(), size_}; }
  operator std::span<const std::uint8_t>() const noexcept { return span(); }

  bool operator==(const CertBytes& o) const noexcept {
    return size_ == o.size_ && std::equal(begin(), end(), o.begin());
  }

 private:
  void release() noexcept {
    if (size_ > kInline) delete[] heap_;
  }
  /// Takes o's bytes (size_ already copied) and leaves o empty.
  void steal(CertBytes& o) noexcept {
    if (size_ > kInline) heap_ = o.heap_;
    else std::copy(o.inline_, o.inline_ + kInline, inline_);
    o.size_ = 0;
  }

  union {
    std::uint8_t inline_[kInline] = {};
    std::uint8_t* heap_;
  };
  std::size_t size_ = 0;
};

/// A certificate is an exact-length bit string.
struct Certificate {
  CertBytes bytes;
  std::size_t bit_size = 0;

  /// Copies the writer's bytes.
  static Certificate from_writer(const BitWriter& w) {
    return {CertBytes(w.bytes()), w.bit_size()};
  }
  /// Copies the writer's bytes and rewinds the writer, which keeps its
  /// buffer for the next certificate.
  static Certificate from_writer(BitWriter&& w) {
    Certificate c = from_writer(w);
    w.clear();
    return c;
  }
  BitReader reader() const { return BitReader(bytes.span(), bit_size); }
  bool operator==(const Certificate&) const = default;
};

/// What a vertex sees about one neighbor: the ID and a *borrowed* certificate.
struct NeighborRef {
  VertexId id;
  const Certificate* certificate;
};

/// The radius-1 view of a vertex, zero-copy: certificates stay owned by the
/// assignment vector (or by the View adapter) that the pointers borrow from,
/// which must outlive the verifier call.
struct ViewRef {
  VertexId id = 0;
  const Certificate* certificate = nullptr;
  const NeighborRef* neighbor_data = nullptr;
  std::size_t neighbor_count = 0;

  std::size_t degree() const noexcept { return neighbor_count; }
  std::span<const NeighborRef> neighbors() const noexcept {
    return {neighbor_data, neighbor_count};
  }
  bool has_neighbor_id(VertexId nid) const {
    for (const auto& nb : neighbors())
      if (nb.id == nid) return true;
    return false;
  }
  const Certificate* neighbor_certificate(VertexId nid) const {
    for (const auto& nb : neighbors())
      if (nb.id == nid) return nb.certificate;
    return nullptr;
  }
};

/// Owning neighbor entry of the View adapter.
struct NeighborView {
  VertexId id;
  Certificate certificate;
};

/// Owning radius-1 view. Adapter over ViewRef: tests build these directly,
/// and verifiers that reconstruct per-block sub-views (CtMinorFreeScheme)
/// need somewhere for the decoded certificates to live. Borrow one with
/// as_ref(): the View must outlive the borrow and `neighbors` must not be
/// mutated while it is alive.
struct View {
  VertexId id = 0;
  Certificate certificate;
  std::vector<NeighborView> neighbors;

  std::size_t degree() const noexcept { return neighbors.size(); }
  bool has_neighbor_id(VertexId nid) const {
    for (const auto& nb : neighbors)
      if (nb.id == nid) return true;
    return false;
  }
  const Certificate* neighbor_certificate(VertexId nid) const {
    for (const auto& nb : neighbors)
      if (nb.id == nid) return &nb.certificate;
    return nullptr;
  }

  /// Explicit borrow: (re)builds the entry table and returns a ViewRef
  /// pointing into this View. Deliberately non-const — the old implicit
  /// conversion hid a mutable cache that made concurrent conversions of one
  /// View a silent data race; the signature now makes the mutation visible,
  /// and concurrent as_ref() calls on a shared View are a type error.
  ViewRef as_ref() {
    ref_entries_.clear();
    ref_entries_.reserve(neighbors.size());
    for (const auto& nb : neighbors) ref_entries_.push_back({nb.id, &nb.certificate});
    return ViewRef{id, &certificate, ref_entries_.data(), ref_entries_.size()};
  }

 private:
  std::vector<NeighborRef> ref_entries_;
};

/// Per-edit accounting returned by IncrementalProver::apply (DESIGN.md §13).
/// Counters are exact, not sampled; the incr layer forwards them to obs.
struct IncrementalStats {
  /// Whether the mutated instance is certified (certificates() non-null).
  bool certified = false;
  /// True when the edit fell off the incremental fast path and the prover ran
  /// a full warm re-prove (root changed, instance flipped from uncertified,
  /// or the edit kind has no tree-local image).
  bool full_reprove = false;
  /// Length of the dirty root-to-leaf slice seeded by the edit (vertices
  /// whose child multiset changed, before repair propagation).
  std::size_t dirty_path_len = 0;
  /// Vertices whose feasibility mask or run state was recomputed.
  std::size_t reproved_vertices = 0;
  /// Vertices re-checked by the radius-1 verifier (changed certs + their
  /// neighborhood).
  std::size_t reverified_vertices = 0;
  /// Certificates that differ from before the edit.
  std::size_t changed_certificates = 0;
  /// Memo traffic attributable to this edit.
  std::size_t memo_hits = 0;
  std::size_t memo_misses = 0;
  /// Fraction of the instance whose certificates survived untouched:
  /// 1 - changed_certificates/n (0 when uncertified).
  double reuse_ratio = 0.0;
  /// Result of the internal radius-1 re-verification of the changed slice
  /// (true when nothing changed or the instance is uncertified).
  bool reverify_clean = true;
};

/// A live certified instance under streaming edits. Obtained from
/// Scheme::make_incremental_prover; drives the lcert::incr layer.
///
/// Contract (pinned by the kIncrementalDivergence fuzz oracle and
/// tests/test_incremental.cpp): after every apply(), certificates() is
/// bit-identical to a cold prove_assignment over the accumulated graph —
/// the incremental path is a pure speedup, never a semantic fork.
class IncrementalProver {
 public:
  virtual ~IncrementalProver() = default;

  /// Certifies the initial instance from cold; returns the certificates (or
  /// nullopt when the instance is not certifiable). Must be called before
  /// apply().
  virtual const std::optional<std::vector<Certificate>>& init(const Graph& g) = 0;

  /// Applies one edit, repairing certificates along the dirty slice only.
  /// Throws std::invalid_argument when the edit is illegal against the
  /// current graph (same validation as apply_edit) or when the edit kind is
  /// outside the scheme's family (e.g. raw edge edits against a tree scheme).
  virtual IncrementalStats apply(const GraphEdit& edit) = 0;

  /// Certificates for the current (post-edit) instance; nullopt when it is
  /// not certifiable.
  virtual const std::optional<std::vector<Certificate>>& certificates() const = 0;

  /// Vertices (post-edit indexing) whose certificates changed in the last
  /// apply(). Meaningless when changed_all() is true.
  virtual const std::vector<std::size_t>& changed_vertices() const = 0;

  /// True when the last apply() invalidated every certificate (full
  /// re-prove or certified-status flip). A leaf prune does NOT set this:
  /// survivors shift down one index, but changed_vertices() tracks vertex
  /// identity through the shift (the MSO prover keeps stable slots and
  /// ranks the changed ones), so an unchanged certificate at a shifted index
  /// is still "unchanged".
  virtual bool changed_all() const = 0;

  /// The accumulated graph (materialized on demand).
  virtual Graph graph() const = 0;
};

/// What the SAT-guided forgery search (src/cert/audit.hpp, strategy
/// "sat-run") needs to attack a run-encoding scheme semantically instead of
/// syntactically: the automaton whose accepting runs enumerate exactly the
/// certificate assignments the verifier could accept, plus the scheme's
/// encoding of one run entry into a per-vertex certificate. A scheme that
/// exposes this surface asserts that every assignment accepted at all
/// vertices decodes to (an orientation of) an accepting run — so a solver
/// that finds an accepting run on a no-instance has found a forgery, and one
/// that exhausts every rooting has proven this attack family empty.
struct RunForgerySurface {
  const UOPAutomaton* automaton = nullptr;
  /// The automaton's transition DNFs, one per state in state order:
  /// boxes[q] holds the canonical boxes of automaton->transition(q), i.e.
  /// BoxIndex(transition(q).to_boxes(state_count)). Borrowed from the
  /// scheme, which builds them once, so attacks never re-expand a DNF.
  std::span<const BoxIndex> boxes;
  /// Encodes one vertex of a run: the vertex's depth below the chosen root
  /// (mod 3, the orientation gadget) and its automaton state.
  std::function<Certificate(std::size_t depth_mod3, std::size_t state)> encode;
};

/// A local certification scheme for one graph property.
class Scheme {
 public:
  virtual ~Scheme() = default;

  virtual std::string name() const = 0;

  /// The certified property (ground truth used by the audit harness; it is
  /// *not* available to the verifier).
  virtual bool holds(const Graph& g) const = 0;

  /// Prover: certificates for a yes-instance; std::nullopt when it cannot
  /// certify (in particular on no-instances).
  virtual std::optional<std::vector<Certificate>> assign(const Graph& g) const = 0;

  /// Batched prover used by prove_assignment (src/cert/prove.hpp). The
  /// context carries the run options, per-worker arenas/writers for flat
  /// per-vertex loops, one feasibility solver and the memo counters; the
  /// default ignores it and delegates to assign(). An
  /// override must return exactly the certificates assign(g) would — for
  /// every thread count and with memoization on or off — so the batch path
  /// is a pure speedup, never a semantic fork (pinned by the round-trip
  /// determinism tests).
  virtual std::optional<std::vector<Certificate>> prove_batch(const Graph& g,
                                                              ProverContext& ctx) const {
    (void)ctx;
    return assign(g);
  }

  /// Radius-1 local verifier. Must be safe to call concurrently from several
  /// threads (the engine fans verification out across vertices).
  virtual bool verify(const ViewRef& view) const = 0;

  /// Batched fast path used by the engine: fills accept[i] = 1 iff views[i]
  /// accepts, treating a CertificateTruncated thrown while checking one view
  /// as a rejection of that view only (counted in engine/truncated_rejects).
  /// Any other exception is a scheme bug and propagates. The default
  /// delegates to verify(); schemes whose per-vertex check is dominated by
  /// call overhead can override it to hoist loop-invariant state out of the
  /// vertex loop (see MsoTreeScheme). An override must decide each views[i]
  /// exactly as verify(views[i]) would. The spans must have equal size.
  virtual void verify_batch(std::span<const ViewRef> views,
                            std::span<std::uint8_t> accept) const {
    assert(views.size() == accept.size());
    for (std::size_t i = 0; i < views.size(); ++i) {
      try {
        accept[i] = verify(views[i]) ? 1 : 0;
      } catch (const CertificateTruncated&) {
        accept[i] = 0;
        static const obs::Counter truncated =
            obs::registry().counter("engine/truncated_rejects");
        truncated.add();
      }
    }
  }

  /// Structured latency attribution for a verify batch the obs outlier
  /// sampler admitted as a top-K slowest unit (DESIGN.md §14). Called off the
  /// hot path — only for batches already measured as outliers — so it may
  /// decode certificates. Returns "" when the scheme has nothing to add;
  /// MsoTreeScheme reports the automaton state with the largest interval-box
  /// fan-out in the batch ("state=<name> boxes=<count>"), which is what makes
  /// the leaves>=4 DNF cliff attributable from a metrics artifact.
  virtual std::string slow_batch_attribution(std::span<const ViewRef> views) const {
    (void)views;
    return {};
  }

  /// Factory for the scheme's incremental prover (DESIGN.md §13), or nullptr
  /// when the scheme has no incremental path — callers fall back to cold
  /// re-proves per edit. The default is nullptr; MsoTreeScheme overrides it.
  virtual std::unique_ptr<IncrementalProver> make_incremental_prover(
      const RunOptions& options) const {
    (void)options;
    return nullptr;
  }

  /// Semantic attack surface for the SAT-guided forgery search, or nullopt
  /// when the scheme's certificates are not run encodings (the default; the
  /// audit then skips the "sat-run" strategy for this scheme).
  virtual std::optional<RunForgerySurface> run_forgery_surface() const {
    return std::nullopt;
  }
};

}  // namespace lcert
