// Named feasibility-solver backends (DESIGN.md §15).
//
// The per-vertex UOP assignment question ("can the children pick states from
// their feasibility masks so the counts land in an interval box?") is
// answered by a pluggable backend selected by name. This header is
// deliberately tiny — RunOptions embeds a Backend, and options.hpp is
// included by every engine entry point, so the enum and its string mapping
// must not drag the solver machinery (flow construction, SAT core) along.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace lcert::solve {

enum class Backend : int {
  kColdFlow,  ///< pristine bounded-flow build per query (reference)
  kGreedy,    ///< pruner + combinatorial decisions, cold-flow fallback (default)
  kSat,       ///< pruner + DPLL on the cardinality encoding
};

inline constexpr Backend kDefaultBackend = Backend::kGreedy;

/// Stable display name ("greedy", "cold-flow", "sat").
const char* backend_name(Backend backend);

/// Inverse of backend_name; nullopt for unknown names.
std::optional<Backend> parse_backend(std::string_view name);

/// "greedy|cold-flow|sat" — the listing CLI errors print, in the same spirit
/// as try_find_scheme's valid-keys listing.
std::string backend_listing();

}  // namespace lcert::solve
