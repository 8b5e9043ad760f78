// Graph serialization: a small text format for instances and DOT export for
// inspection. Used by the CLI example and handy for bug reports.
//
// Text format ("lcert edge list"):
//   n <vertex_count>
//   [id <v> <identifier>]*     optional explicit IDs (default 1..n)
//   e <u> <v>                  one line per edge, 0-based endpoints
//   # comment lines and blank lines are ignored
#pragma once

#include <cstddef>
#include <iosfwd>
#include <string>

#include "src/graph/graph.hpp"

namespace lcert {

/// Largest vertex count parse_edge_list accepts: 2^24, 64 times the largest
/// instance the benchmarks run. The cap is checked before anything of size n
/// is allocated, so a one-line file cannot ask for gigabytes.
inline constexpr std::size_t kMaxEdgeListVertices = std::size_t{1} << 24;

/// Parses the edge-list format; throws std::invalid_argument with a line
/// number on malformed input, including a vertex count above
/// kMaxEdgeListVertices.
Graph parse_edge_list(std::istream& in);
Graph parse_edge_list(const std::string& text);

/// Writes the same format (IDs included when not the default 1..n).
std::string to_edge_list(const Graph& g);

/// Graphviz DOT (undirected), with vertex IDs as labels.
std::string to_dot(const Graph& g);

/// File round-trip for `.lcg` repro files (the edge-list format above). The
/// fuzz campaign writes shrunk counterexamples with save_graph; load_graph
/// feeds them back into tests. Throws std::runtime_error on I/O failure and
/// std::invalid_argument on malformed content.
void save_graph(const Graph& g, const std::string& path);
Graph load_graph(const std::string& path);

}  // namespace lcert
