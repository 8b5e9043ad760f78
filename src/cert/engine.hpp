// Evaluation engine: runs a scheme's verifier at every vertex and accounts
// certificate sizes in bits (the paper's performance measure).
//
// The hot path is zero-copy and parallel. A ViewCache borrows the graph's
// own CSR topology (offsets, neighbor vertex indices, self IDs); binding a
// certificate assignment to it is a single O(m) fill of {neighbor ID,
// certificate pointer} pairs, and each per-vertex ViewRef is then handed out
// without copying a byte of certificate data. verify_assignment fans the
// vertices out over a worker pool; results are deterministic (the rejecting
// set is produced in vertex order regardless of thread count).
#pragma once

#include <cstddef>
#include <vector>

#include "src/cert/options.hpp"
#include "src/cert/scheme.hpp"

namespace lcert {

/// Builds vertex v's radius-1 view under a certificate assignment, deep
/// copying the certificates. Adapter for tests and one-off inspection; the
/// engine itself goes through ViewCache.
View make_view(const Graph& g, const std::vector<Certificate>& certificates, Vertex v);

/// Reusable zero-copy view factory for one graph. It copies nothing: the
/// topology is the graph's CSR arrays, borrowed (so the graph must outlive
/// the cache, and a temporary graph is refused). Every verification pass over
/// the same graph (the scaling experiments, the audit's hundreds of forged
/// assignments) only rebinds certificate pointers.
class ViewCache {
 public:
  explicit ViewCache(const Graph& g)
      : g_(&g), ids_(g.ids()), offsets_(g.offsets()), adjacency_(g.adjacency()) {}
  ViewCache(Graph&&) = delete;

  const Graph& graph() const noexcept { return *g_; }
  std::size_t vertex_count() const noexcept { return ids_.size(); }

  /// One certificate assignment bound to the cached topology. Cheap to
  /// create (one O(m) fill, no certificate copies) and immutable afterwards,
  /// so a Binding may be shared by concurrent verifier calls. Borrows the
  /// cache, its graph and the certificate vector: all must outlive the
  /// binding, and the vector must not be resized while bound.
  class Binding {
   public:
    ViewRef view(Vertex v) const noexcept {
      return ViewRef{cache_->ids_[v], &(*certificates_)[v],
                     entries_.data() + cache_->offsets_[v],
                     cache_->offsets_[v + 1] - cache_->offsets_[v]};
    }
    std::size_t vertex_count() const noexcept { return cache_->vertex_count(); }

   private:
    friend class ViewCache;
    Binding(const ViewCache& cache, const std::vector<Certificate>& certificates);

    const ViewCache* cache_;
    const std::vector<Certificate>* certificates_;
    std::vector<NeighborRef> entries_;  ///< CSR-parallel {id, cert*} pairs
  };

  /// Binds an assignment (size must equal vertex_count()).
  Binding bind(const std::vector<Certificate>& certificates) const;

 private:
  const Graph* g_;
  std::span<const VertexId> ids_;         ///< self ID per vertex
  std::span<const std::size_t> offsets_;  ///< CSR offsets, size n+1
  std::span<const Vertex> adjacency_;     ///< CSR neighbor vertex indices
};

struct VerificationOutcome {
  bool all_accept = false;
  std::vector<Vertex> rejecting;        ///< vertices whose verifier said no
  std::size_t max_certificate_bits = 0;
  std::size_t total_certificate_bits = 0;
};

/// Runs the verifier everywhere under a given assignment. In full mode the
/// outcome is bit-for-bit identical for every num_threads value.
VerificationOutcome verify_assignment(const Scheme& scheme, const Graph& g,
                                      const std::vector<Certificate>& certificates,
                                      const RunOptions& options = {});

/// Same, against a prebuilt ViewCache (the audit loops re-verify hundreds of
/// assignments on one graph; building the cache once amortizes the topology
/// walk away).
VerificationOutcome verify_assignment(const Scheme& scheme, const ViewCache& cache,
                                      const std::vector<Certificate>& certificates,
                                      const RunOptions& options = {});

struct SchemeOutcome {
  bool prover_succeeded = false;
  VerificationOutcome verification;
};

/// Prover + verifier end to end.
SchemeOutcome run_scheme(const Scheme& scheme, const Graph& g,
                         const RunOptions& options = {});

/// Certificate size (max bits) the prover uses on this yes-instance; throws
/// if the prover fails or a verifier rejects — those are library bugs.
std::size_t certified_size_bits(const Scheme& scheme, const Graph& g);

}  // namespace lcert
