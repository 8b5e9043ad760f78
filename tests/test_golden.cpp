// Golden certificate corpus (tests/data/golden/, described in
// golden_corpus.hpp): every stored graph is re-proved with prove_assignment
// under default RunOptions and its certificates are compared bit for bit
// with the stored dump. A refactor of the prover, the solver backends or the
// box lists that changes any certificate fails here, and so does a newly
// registered scheme until its files exist. After an intended encoding
// change, rewrite the corpus with the golden_regen program and review the
// diff.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "src/cert/prove.hpp"
#include "src/graph/io.hpp"
#include "tests/golden_corpus.hpp"

namespace lcert::golden {
namespace {

std::string golden_path(const std::string& stem, const char* ext) {
  return std::string(LCERT_GOLDEN_DIR) + "/" + stem + ext;
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

class GoldenCertificates : public ::testing::TestWithParam<GoldenCase> {};

TEST_P(GoldenCertificates, DefaultProverReproducesTheDump) {
  const GoldenCase& c = GetParam();
  const Graph g = load_graph(golden_path(c.stem, ".lcg"));
  const auto scheme = find_scheme(c.key).make();
  const ProveResult result = prove_assignment(*scheme, g);
  ASSERT_TRUE(result.certificates.has_value()) << c.stem << ": prover refused";
  EXPECT_EQ(dump(*result.certificates), read_file(golden_path(c.stem, ".certs")))
      << c.stem << ": certificates diverged from the golden dump";
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenCertificates, ::testing::ValuesIn(golden_cases()),
                         [](const ::testing::TestParamInfo<GoldenCase>& info) {
                           std::string name = info.param.stem;
                           for (char& ch : name)
                             if (ch == '-') ch = '_';
                           return name;
                         });

}  // namespace
}  // namespace lcert::golden
