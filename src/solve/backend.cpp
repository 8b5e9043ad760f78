#include "src/solve/backend.hpp"

namespace lcert::solve {

const char* backend_name(Backend backend) {
  switch (backend) {
    case Backend::kColdFlow: return "cold-flow";
    case Backend::kGreedy: return "greedy";
    case Backend::kSat: return "sat";
  }
  return "unknown";
}

std::optional<Backend> parse_backend(std::string_view name) {
  if (name == "cold-flow") return Backend::kColdFlow;
  if (name == "greedy") return Backend::kGreedy;
  if (name == "sat") return Backend::kSat;
  return std::nullopt;
}

std::string backend_listing() { return "greedy|cold-flow|sat"; }

}  // namespace lcert::solve
