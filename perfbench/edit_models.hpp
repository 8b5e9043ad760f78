// Seeded edit streams for the benchmark's incremental phase.
//
// Drawing an edit with fuzz::draw_edit + apply_edit + holds() materializes
// the whole graph per draw, which at n = 2^14 costs far more than the repair
// the edit feeds. The two tree models below keep just enough structure
// (parent array, degrees) to emit legal GraphEdit descriptors in O(depth)
// or, for a prune, O(n) for the index shift — and they mirror the library's
// index semantics exactly (a prune maps v -> v-1 for every v > pruned), so
// the stream stays in step with incr::CertifiedInstance without a Graph.
//
// FamilyMutations is the `lcert_cli watch` way: it draws from the family's
// own mutators and redraws until holds() stays true; it keeps the graph.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/cert/scheme.hpp"
#include "src/graph/edit.hpp"
#include "src/graph/graph.hpp"
#include "src/schemes/registry.hpp"
#include "src/util/rng.hpp"

namespace lcert::bench {

class EditSource {
 public:
  virtual ~EditSource() = default;
  /// The next edit of the stream. Throws std::runtime_error when no legal
  /// edit can be drawn.
  virtual GraphEdit next() = 0;
  /// Called after CertifiedInstance::apply accepted the edit from next().
  virtual void applied() {}
  /// Whether the model still describes `g` (vertex count and degrees).
  virtual bool matches(const Graph& g) const = 0;
  /// Draws thrown away because holds() left the scheme's envelope
  /// (std::invalid_argument) or turned false. Zero for the tree models.
  std::size_t envelope_redraws = 0;
  std::size_t property_redraws = 0;
};

/// Leaf churn on a tree — a node joining (leaf graft), leaving (leaf prune)
/// and moving (leaf rehang, a subtree swap of a single leaf) — in a fixed
/// graft, rehang, prune cycle, so n stays within one of its start. Keeps at
/// least 5 leaves, so "has >= 4 leaves" holds throughout.
std::unique_ptr<EditSource> make_leaf_churn(const Graph& g, std::uint64_t seed);

/// Whole-subtree rehangs on a twinned tree: vertices [0, n/2) form the base
/// tree and vertex v + n/2 is the pendant twin of v (the registry's
/// mso-perfect-matching yes-instance). Each edit cuts a base vertex with its
/// subtree (twins included) from its parent and hangs it under a base vertex
/// outside that subtree, so the twin matching stays perfect. Throws
/// std::invalid_argument when `g` is not twinned that way.
std::unique_ptr<EditSource> make_subtree_rehang(const Graph& g, std::uint64_t seed);

/// Edits drawn with fuzz::draw_edit from the family's mutators, redrawn until
/// holds() stays true (the `lcert_cli watch` loop). A draw whose holds()
/// throws std::invalid_argument counts in envelope_redraws.
std::unique_ptr<EditSource> make_family_mutations(const RegisteredScheme& entry,
                                                  const Scheme& scheme, const Graph& g,
                                                  std::uint64_t seed);

}  // namespace lcert::bench
