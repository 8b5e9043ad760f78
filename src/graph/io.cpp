#include "src/graph/io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace lcert {

Graph parse_edge_list(std::istream& in) {
  std::size_t n = 0;
  bool have_n = false;
  std::vector<std::pair<Vertex, Vertex>> edges;
  std::vector<std::pair<Vertex, VertexId>> ids;

  std::string line;
  std::size_t line_number = 0;
  auto fail = [&line_number](const std::string& message) -> void {
    throw std::invalid_argument("parse_edge_list: " + message + " at line " +
                                std::to_string(line_number));
  };
  while (std::getline(in, line)) {
    ++line_number;
    std::istringstream ls(line);
    std::string op;
    if (!(ls >> op) || op[0] == '#') continue;
    if (op == "n") {
      if (have_n) fail("duplicate 'n' line");
      if (!(ls >> n) || n == 0) fail("bad vertex count");
      if (n > kMaxEdgeListVertices)
        fail("vertex count " + std::to_string(n) + " above the cap of " +
             std::to_string(kMaxEdgeListVertices));
      have_n = true;
    } else if (op == "e") {
      std::size_t u = 0, v = 0;
      if (!(ls >> u >> v)) fail("bad edge line");
      edges.emplace_back(u, v);
    } else if (op == "id") {
      std::size_t v = 0;
      VertexId id = 0;
      if (!(ls >> v >> id)) fail("bad id line");
      ids.emplace_back(v, id);
    } else {
      fail("unknown directive '" + op + "'");
    }
  }
  if (!have_n) {
    line_number = 0;
    fail("missing 'n' line");
  }
  Graph g(n, edges);
  if (!ids.empty()) {
    std::vector<VertexId> table(n);
    for (Vertex v = 0; v < n; ++v) table[v] = v + 1;
    for (auto [v, id] : ids) {
      if (v >= n) throw std::invalid_argument("parse_edge_list: id line out of range");
      table[v] = id;
    }
    g.set_ids(std::move(table));
  }
  return g;
}

Graph parse_edge_list(const std::string& text) {
  std::istringstream in(text);
  return parse_edge_list(in);
}

std::string to_edge_list(const Graph& g) {
  std::ostringstream os;
  os << "n " << g.vertex_count() << "\n";
  bool default_ids = true;
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    if (g.id(v) != v + 1) default_ids = false;
  if (!default_ids)
    for (Vertex v = 0; v < g.vertex_count(); ++v) os << "id " << v << ' ' << g.id(v) << "\n";
  for (auto [u, v] : g.edges()) os << "e " << u << ' ' << v << "\n";
  return os.str();
}

void save_graph(const Graph& g, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("save_graph: cannot open " + path);
  out << to_edge_list(g);
  if (!out.flush()) throw std::runtime_error("save_graph: write failed for " + path);
}

Graph load_graph(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("load_graph: cannot open " + path);
  return parse_edge_list(in);
}

std::string to_dot(const Graph& g) {
  std::ostringstream os;
  os << "graph lcert {\n";
  for (Vertex v = 0; v < g.vertex_count(); ++v)
    os << "  v" << v << " [label=\"" << g.id(v) << "\"];\n";
  for (auto [u, v] : g.edges()) os << "  v" << u << " -- v" << v << ";\n";
  os << "}\n";
  return os.str();
}

}  // namespace lcert
