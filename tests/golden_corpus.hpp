// Golden certificate corpus (tests/data/golden/): the case list, the fixed
// instances and the certificate dump format, shared by the ctest that checks
// the corpus (test_golden.cpp) and the program that writes it
// (golden_regen/golden_regen.cpp).
//
// For every registered scheme the corpus holds the registry yes-generator's
// instance at n = 24 (seed kGoldenSeed; the generator may adjust n), and for
// the three MSO-on-trees schemes one more 1,024-vertex random tree that
// satisfies the property. Each instance is stored as a graph (`<stem>.lcg`),
// not as a seed, so a change to a generator cannot move the corpus; its
// certificates are stored as a dump (`<stem>.certs`, one line per vertex:
// index, bit size, hex bytes).
#pragma once

#include <cstdio>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/cert/scheme.hpp"
#include "src/graph/generators.hpp"
#include "src/schemes/registry.hpp"
#include "src/util/rng.hpp"

namespace lcert::golden {

inline constexpr std::uint64_t kGoldenSeed = 20220725;
inline constexpr std::size_t kGoldenN = 24;
inline constexpr std::size_t kLargeN = 1024;

inline constexpr const char* kMsoKeys[] = {"mso-perfect-matching", "mso-caterpillar",
                                           "mso-leaves4"};

struct GoldenCase {
  std::string key;   ///< registry key
  std::string stem;  ///< file stem under tests/data/golden/
};

inline void PrintTo(const GoldenCase& c, std::ostream* os) { *os << c.stem; }

inline std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> out;
  for (const auto& entry : scheme_registry()) out.push_back({entry.key, entry.key});
  for (const char* key : kMsoKeys) out.push_back({key, std::string(key) + "-1024"});
  return out;
}

inline std::string dump(const std::vector<Certificate>& certs) {
  std::ostringstream os;
  for (std::size_t v = 0; v < certs.size(); ++v) {
    const Certificate& c = certs[v];
    os << v << '\t' << c.bit_size << '\t';
    if (c.bytes.empty()) os << '-';
    char hex[3];
    for (const std::uint8_t b : c.bytes) {
      std::snprintf(hex, sizeof hex, "%02x", b);
      os << hex;
    }
    os << '\n';
  }
  return os.str();
}

/// A random tree on kLargeN vertices that satisfies `key`'s property: a
/// random tree with a pendant twin per vertex (perfect matching), a random
/// spine with uniformly attached legs (caterpillar), or a plain random tree
/// (>= 4 leaves).
inline Graph large_random_tree(const std::string& key, Rng& rng) {
  Graph g;
  if (key == "mso-perfect-matching") {
    const Graph base = make_random_tree(kLargeN / 2, rng);
    auto edges = base.edges();
    for (Vertex v = 0; v < kLargeN / 2; ++v) edges.emplace_back(v, v + kLargeN / 2);
    g = Graph(kLargeN, edges);
  } else if (key == "mso-caterpillar") {
    const std::size_t spine = kLargeN / 4;
    std::vector<std::pair<Vertex, Vertex>> edges;
    for (Vertex v = 1; v < spine; ++v) edges.emplace_back(v - 1, v);
    for (Vertex v = spine; v < kLargeN; ++v)
      edges.emplace_back(static_cast<Vertex>(rng.index(spine)), v);
    g = Graph(kLargeN, edges);
  } else {
    g = make_random_tree(kLargeN, rng);
  }
  assign_random_ids(g, rng);
  return g;
}

/// The stored instance of a case, as the corpus was generated.
inline Graph golden_instance(const GoldenCase& c) {
  Rng rng(kGoldenSeed);
  if (c.stem == c.key) return find_scheme(c.key).family.yes_instance(kGoldenN, rng);
  return large_random_tree(c.key, rng);
}

}  // namespace lcert::golden
