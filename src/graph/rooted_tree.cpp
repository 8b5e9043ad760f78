#include "src/graph/rooted_tree.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace lcert {

RootedTree::RootedTree(std::vector<std::size_t> parent)
    : parent_(std::move(parent)), children_(parent_.size()), depth_(parent_.size(), SIZE_MAX) {
  const std::size_t n = parent_.size();
  if (n == 0) throw std::invalid_argument("RootedTree: empty");
  std::size_t roots = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (parent_[v] == kNoParent) {
      root_ = v;
      ++roots;
    } else if (parent_[v] >= n) {
      throw std::out_of_range("RootedTree: parent out of range");
    } else {
      children_[parent_[v]].push_back(v);
    }
  }
  if (roots != 1) throw std::invalid_argument("RootedTree: must have exactly one root");
  // Compute depths iteratively (also detects cycles: unreachable vertices).
  depth_[root_] = 0;
  std::vector<std::size_t> stack{root_};
  std::size_t visited = 0;
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    ++visited;
    for (std::size_t c : children_[v]) {
      depth_[c] = depth_[v] + 1;
      stack.push_back(c);
    }
  }
  if (visited != n) throw std::invalid_argument("RootedTree: parent array contains a cycle");
}

void RootedTree::require_compacted(const char* what) const {
  if (dead_ != 0)
    throw std::logic_error(std::string("RootedTree::") + what + ": tree has tombstones");
}

std::size_t RootedTree::height() const {
  require_compacted("height");
  return *std::max_element(depth_.begin(), depth_.end());
}

bool RootedTree::is_ancestor(std::size_t a, std::size_t d) const {
  std::size_t v = d;
  while (v != kNoParent) {
    if (v == a) return true;
    v = parent_.at(v);
  }
  return false;
}

std::vector<std::size_t> RootedTree::ancestors(std::size_t v) const {
  std::vector<std::size_t> out;
  std::size_t cur = v;
  while (cur != kNoParent) {
    out.push_back(cur);
    cur = parent_.at(cur);
  }
  return out;
}

std::vector<std::size_t> RootedTree::subtree(std::size_t v) const {
  std::vector<std::size_t> out;
  std::vector<std::size_t> stack{v};
  while (!stack.empty()) {
    const std::size_t u = stack.back();
    stack.pop_back();
    out.push_back(u);
    for (std::size_t c : children_[u]) stack.push_back(c);
  }
  return out;
}

std::vector<std::vector<std::size_t>> RootedTree::levels() const {
  require_compacted("levels");
  std::vector<std::vector<std::size_t>> out(height() + 1);
  // Ascending vertex order within each level, by construction.
  for (std::size_t v = 0; v < size(); ++v) out[depth_[v]].push_back(v);
  return out;
}

Graph RootedTree::to_graph() const {
  require_compacted("to_graph");
  std::vector<std::pair<Vertex, Vertex>> edges;
  edges.reserve(size() - 1);
  for (std::size_t v = 0; v < size(); ++v)
    if (parent_[v] != kNoParent) edges.emplace_back(v, parent_[v]);
  return Graph(size(), edges);
}

std::size_t RootedTree::graft_leaf(std::size_t parent) {
  if (parent >= size()) throw std::out_of_range("graft_leaf: parent out of range");
  if (!is_live(parent)) throw std::invalid_argument("graft_leaf: parent is a tombstone");
  const std::size_t v = size();
  parent_.push_back(parent);
  children_.emplace_back();
  depth_.push_back(depth_[parent] + 1);
  children_[parent].push_back(v);  // v > every existing slot: stays sorted
  return v;
}

void RootedTree::prune_leaf(std::size_t leaf) {
  kill_leaf(leaf);
  compact();
}

void RootedTree::kill_leaf(std::size_t leaf) {
  if (leaf >= size()) throw std::out_of_range("kill_leaf: leaf out of range");
  if (!is_live(leaf)) throw std::invalid_argument("kill_leaf: slot is already a tombstone");
  if (!children_[leaf].empty())
    throw std::invalid_argument("kill_leaf: vertex has children");
  if (leaf == root_) throw std::invalid_argument("kill_leaf: cannot prune the root");
  auto& siblings = children_[parent_[leaf]];
  siblings.erase(std::find(siblings.begin(), siblings.end(), leaf));
  parent_[leaf] = kDead;
  ++dead_;
}

void RootedTree::compact() {
  if (dead_ == 0) return;
  // index[s]: the vertex live slot s becomes (its rank among live slots).
  std::vector<std::size_t> index(size(), kNoParent);
  std::size_t live = 0;
  for (std::size_t s = 0; s < size(); ++s)
    if (parent_[s] != kDead) index[s] = live++;
  // Every write lands at index[s] <= s, a slot already read: one forward
  // pass renumbers in place. Renumbering is order-preserving, so each
  // (sorted) children list stays sorted.
  for (std::size_t s = 0; s < size(); ++s) {
    if (parent_[s] == kDead) continue;
    const std::size_t v = index[s];
    parent_[v] = parent_[s] == kNoParent ? kNoParent : index[parent_[s]];
    depth_[v] = depth_[s];
    if (v != s) children_[v] = std::move(children_[s]);
    for (std::size_t& k : children_[v]) k = index[k];
  }
  parent_.resize(live);
  depth_.resize(live);
  children_.resize(live);
  root_ = index[root_];
  dead_ = 0;
}

std::vector<std::size_t> RootedTree::reattach(std::size_t c, std::size_t a,
                                              std::size_t p) {
  if (c >= size() || a >= size() || p >= size())
    throw std::out_of_range("reattach: vertex out of range");
  if (!is_live(c) || !is_live(a) || !is_live(p))
    throw std::invalid_argument("reattach: vertex is a tombstone");
  if (c == root_) throw std::invalid_argument("reattach: cannot detach the root");
  if (!is_ancestor(c, a))
    throw std::invalid_argument("reattach: new subtree root outside the detached subtree");
  if (is_ancestor(c, p))
    throw std::invalid_argument("reattach: new parent inside the detached subtree");

  // The a-to-c path, a first; these are the vertices whose children change.
  std::vector<std::size_t> path;
  for (std::size_t x = a;; x = parent_[x]) {
    path.push_back(x);
    if (x == c) break;
  }

  const auto remove_child = [&](std::size_t par, std::size_t child) {
    auto& kids = children_[par];
    kids.erase(std::find(kids.begin(), kids.end(), child));
  };
  const auto insert_child = [&](std::size_t par, std::size_t child) {
    auto& kids = children_[par];
    kids.insert(std::upper_bound(kids.begin(), kids.end(), child), child);
  };

  remove_child(parent_[c], c);
  // Re-root the detached piece at `a`: parent pointers along the path flip.
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    const std::size_t child = path[i];
    const std::size_t par = path[i + 1];
    remove_child(par, child);
    insert_child(child, par);
    parent_[par] = child;
  }
  parent_[a] = p;
  insert_child(p, a);

  // Depths of the moved piece (now the subtree of `a`) from its new anchor.
  depth_[a] = depth_[p] + 1;
  std::vector<std::size_t> stack{a};
  while (!stack.empty()) {
    const std::size_t v = stack.back();
    stack.pop_back();
    for (std::size_t k : children_[v]) {
      depth_[k] = depth_[v] + 1;
      stack.push_back(k);
    }
  }
  return path;
}

RootedTree RootedTree::from_graph(const Graph& g, Vertex root) {
  const std::size_t n = g.vertex_count();
  if (g.edge_count() != n - 1 || !g.is_connected())
    throw std::invalid_argument("RootedTree::from_graph: not a tree");
  std::vector<std::size_t> parent(n, kNoParent);
  std::vector<bool> seen(n, false);
  std::vector<Vertex> stack{root};
  seen.at(root) = true;
  while (!stack.empty()) {
    const Vertex v = stack.back();
    stack.pop_back();
    for (Vertex w : g.neighbors(v)) {
      if (!seen[w]) {
        seen[w] = true;
        parent[w] = v;
        stack.push_back(w);
      }
    }
  }
  return RootedTree(std::move(parent));
}

}  // namespace lcert
