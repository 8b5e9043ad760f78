// Writes the golden certificate corpus (see tests/golden_corpus.hpp):
//
//   golden_regen [dir]      # default: the source tree's tests/data/golden
//
// Run it only when an encoding change is intended, and review the diff of
// tests/data/golden/ before committing it.
#include <cstdio>
#include <fstream>

#include "src/cert/prove.hpp"
#include "src/graph/io.hpp"
#include "tests/golden_corpus.hpp"

int main(int argc, char** argv) {
  using namespace lcert;
  const std::string dir = argc > 1 ? argv[1] : LCERT_GOLDEN_DIR;
  for (const golden::GoldenCase& c : golden::golden_cases()) {
    const Graph g = golden::golden_instance(c);
    const auto scheme = find_scheme(c.key).make();
    const ProveResult result = prove_assignment(*scheme, g);
    if (!result.certificates.has_value()) {
      std::fprintf(stderr, "error: %s: not a yes-instance\n", c.stem.c_str());
      return 1;
    }
    save_graph(g, dir + "/" + c.stem + ".lcg");
    std::ofstream out(dir + "/" + c.stem + ".certs");
    out << golden::dump(*result.certificates);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s/%s.certs\n", dir.c_str(), c.stem.c_str());
      return 1;
    }
    std::printf("wrote %s (n=%zu)\n", c.stem.c_str(), g.vertex_count());
  }
  return 0;
}
