// First-class graph edit descriptors.
//
// The fuzz mutators (DESIGN.md §10) used to be closures from Graph to Graph:
// draw random parameters, rebuild, return. The incremental recertification
// layer (DESIGN.md §13) needs the parameters themselves — a live
// CertifiedInstance patches its rooted tree and its certificate slice from
// the edit description without ever materializing the mutated Graph on the
// hot path. So the mutation step is split in two: fuzz::draw_edit picks the
// parameters (same RNG stream as the old closures, so every recorded
// (seed, trial) replay still reproduces), and apply_edit here materializes
// the mutated Graph from a descriptor. A descriptor is plain data: it can be
// logged, shrunk, shipped to a CLI, or replayed against either representation.
//
// Index semantics follow the mutators exactly:
//   kLeafGraft   adds vertex n (= old vertex_count) as a leaf under `a`,
//                carrying `fresh_id`.
//   kLeafPrune   removes vertex `a` (degree 1); survivors are renumbered by
//                Graph::induced — v maps to v-1 for every v > a.
//   kSubtreeSwap deletes edge {a, c} and inserts edge {a, b} (a = moved
//                subtree root, c = its old parent, b = its new parent, all
//                under the drawing rooting; any rooting sees the same edge
//                replacement).
//   kEdgeAdd / kEdgeDelete insert/remove the undirected edge {a, b}.
//   kIdPermute   replaces the whole ID assignment with `ids`.
#pragma once

#include <string>
#include <vector>

#include "src/graph/graph.hpp"

namespace lcert {

enum class EditKind {
  kEdgeAdd,      ///< insert the non-edge {a, b} (keeps simplicity)
  kEdgeDelete,   ///< delete the non-bridge edge {a, b} (keeps connectivity)
  kLeafGraft,    ///< attach fresh leaf (new vertex n, id fresh_id) under a
  kLeafPrune,    ///< remove degree-1 vertex a (indices above shift down)
  kSubtreeSwap,  ///< re-hang: delete edge {a, c}, insert edge {a, b}
  kIdPermute,    ///< replace the ID assignment with `ids`
};

/// Display name, stable across versions (appears in shrunk repro files and
/// in `lcert_cli apply-edit` / `watch` output).
std::string edit_name(EditKind kind);

/// One concrete edit. Field use per kind (unused fields are zero/empty):
///   kEdgeAdd, kEdgeDelete: a, b  — the edge endpoints
///   kLeafGraft:            a     — the anchor; fresh_id — the new leaf's ID
///   kLeafPrune:            a     — the pruned vertex
///   kSubtreeSwap:          a     — moved subtree root; b — new parent;
///                          c     — old parent
///   kIdPermute:            ids   — the full replacement ID assignment
struct GraphEdit {
  EditKind kind = EditKind::kEdgeAdd;
  Vertex a = 0;
  Vertex b = 0;
  Vertex c = 0;
  VertexId fresh_id = 0;
  std::vector<VertexId> ids = {};
};

/// Human-readable one-liner ("leaf-graft anchor=3 id=17"), for stats lines
/// and repro logs.
std::string to_string(const GraphEdit& edit);

/// Materializes the edit. Throws std::invalid_argument when the descriptor
/// does not apply to `g` (endpoint out of range, pruning a non-leaf, swapping
/// a non-existent edge). The result preserves IDs of surviving vertices,
/// exactly as the fuzz mutators always did.
Graph apply_edit(const Graph& g, const GraphEdit& edit);

}  // namespace lcert
