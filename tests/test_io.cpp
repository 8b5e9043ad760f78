#include "src/graph/io.hpp"

#include <gtest/gtest.h>

#include "src/graph/generators.hpp"
#include "src/util/rng.hpp"

namespace lcert {
namespace {

TEST(GraphIo, ParseBasic) {
  const Graph g = parse_edge_list("n 3\ne 0 1\ne 1 2\n");
  EXPECT_EQ(g.vertex_count(), 3u);
  EXPECT_EQ(g.edge_count(), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_EQ(g.id(0), 1u);
}

TEST(GraphIo, ParseWithIdsAndComments) {
  const Graph g = parse_edge_list(
      "# a triangle\n"
      "n 3\n"
      "id 0 10\n"
      "id 2 30\n"
      "\n"
      "e 0 1\ne 1 2\ne 0 2\n");
  EXPECT_EQ(g.id(0), 10u);
  EXPECT_EQ(g.id(1), 2u);  // default kept
  EXPECT_EQ(g.id(2), 30u);
}

TEST(GraphIo, ParseErrors) {
  EXPECT_THROW(parse_edge_list(""), std::invalid_argument);
  EXPECT_THROW(parse_edge_list("e 0 1\n"), std::invalid_argument);          // missing n
  EXPECT_THROW(parse_edge_list("n 2\nn 2\n"), std::invalid_argument);       // duplicate n
  EXPECT_THROW(parse_edge_list("n 0\n"), std::invalid_argument);            // empty graph
  EXPECT_THROW(parse_edge_list("n 2\nx 0 1\n"), std::invalid_argument);     // bad directive
  EXPECT_THROW(parse_edge_list("n 2\ne 0\n"), std::invalid_argument);       // short edge
  EXPECT_THROW(parse_edge_list("n 2\ne 0 5\n"), std::out_of_range);         // endpoint
  EXPECT_THROW(parse_edge_list("n 2\nid 5 9\n"), std::invalid_argument);    // id range
}

// A one-line file cannot ask for a graph above the cap: it is refused before
// anything of size n is allocated, and the message names the cap.
TEST(GraphIo, VertexCountAboveTheCapIsRefused) {
  try {
    parse_edge_list("n 99999999999\n");
    FAIL() << "an 11-digit vertex count was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(std::to_string(kMaxEdgeListVertices)),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(parse_edge_list("n " + std::to_string(kMaxEdgeListVertices + 1) + "\n"),
               std::invalid_argument);
  EXPECT_EQ(parse_edge_list("n 3\n").vertex_count(), 3u);
}

TEST(GraphIo, RoundTripRandom) {
  Rng rng(1);
  for (int trial = 0; trial < 20; ++trial) {
    Graph g = make_random_connected(2 + rng.index(20), 0.3, rng);
    assign_random_ids(g, rng);
    const Graph back = parse_edge_list(to_edge_list(g));
    EXPECT_EQ(back.vertex_count(), g.vertex_count());
    EXPECT_EQ(back.edge_count(), g.edge_count());
    for (auto [u, v] : g.edges()) EXPECT_TRUE(back.has_edge(u, v));
    for (Vertex v = 0; v < g.vertex_count(); ++v) EXPECT_EQ(back.id(v), g.id(v));
  }
}

TEST(GraphIo, DotContainsAllEdges) {
  const Graph g = make_cycle(4);
  const std::string dot = to_dot(g);
  EXPECT_NE(dot.find("graph lcert {"), std::string::npos);
  EXPECT_NE(dot.find("v0 -- v1"), std::string::npos);
  EXPECT_NE(dot.find("v0 -- v3"), std::string::npos);  // edges render with u < v
  EXPECT_NE(dot.find("label=\"1\""), std::string::npos);
}

}  // namespace
}  // namespace lcert
