#include "trees/spanning_tree.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace pfar::trees {

SpanningTree::SpanningTree(int root, std::vector<int> parent)
    : root_(root), parent_(std::move(parent)) {
  const int n = static_cast<int>(parent_.size());
  if (root_ < 0 || root_ >= n || parent_[static_cast<std::size_t>(root_)] != -1) {
    throw std::invalid_argument("SpanningTree: bad root");
  }
  // Counting-sort CSR build of the child lists (each row ascending, as
  // children are appended in vertex order).
  child_offsets_.assign(static_cast<std::size_t>(n + 1), 0);
  for (int v = 0; v < n; ++v) {
    if (v == root_) continue;
    if (parent_[static_cast<std::size_t>(v)] < 0 || parent_[static_cast<std::size_t>(v)] >= n) {
      throw std::invalid_argument("SpanningTree: vertex without parent");
    }
    ++child_offsets_[static_cast<std::size_t>(parent_[static_cast<std::size_t>(v)] + 1)];
  }
  for (int v = 0; v < n; ++v) child_offsets_[static_cast<std::size_t>(v + 1)] += child_offsets_[static_cast<std::size_t>(v)];
  children_.resize(static_cast<std::size_t>(n > 0 ? n - 1 : 0));
  std::vector<int> cursor(child_offsets_.begin(), child_offsets_.end() - 1);
  for (int v = 0; v < n; ++v) {
    if (v != root_) children_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(parent_[static_cast<std::size_t>(v)])]++)] = v;
  }
  // Levels via BFS from the root; also detects cycles/disconnection
  // (a cycle never gets a level assigned).
  level_.assign(static_cast<std::size_t>(n), -1);
  std::vector<int> frontier;
  frontier.reserve(static_cast<std::size_t>(n));
  level_[static_cast<std::size_t>(root_)] = 0;
  frontier.push_back(root_);
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const int u = frontier[head];
    depth_ = std::max(depth_, level_[static_cast<std::size_t>(u)]);
    for (int c : children(u)) {
      level_[static_cast<std::size_t>(c)] = level_[static_cast<std::size_t>(u)] + 1;
      frontier.push_back(c);
    }
  }
  if (static_cast<int>(frontier.size()) != n) {
    throw std::invalid_argument("SpanningTree: parent vector has a cycle");
  }
  stamp_.renew();
}

std::vector<graph::Edge> SpanningTree::edges() const {
  std::vector<graph::Edge> out;
  out.reserve(parent_.size() - 1);
  for (int v = 0; v < num_vertices(); ++v) {
    if (v != root_) out.emplace_back(v, parent_[static_cast<std::size_t>(v)]);
  }
  return out;
}

bool SpanningTree::is_spanning_tree_of(const graph::Graph& g) const {
  if (g.num_vertices() != num_vertices()) return false;
  const graph::IntSpan parents(parent_);
  try {
    static_cast<void>(graph::parent_links(g, {&parents, 1}));
  } catch (const std::invalid_argument&) {
    return false;
  }
  // Connectivity/acyclicity already guaranteed by the constructor.
  return true;
}

int RootedShapes::name(const SpanningTree& tree) {
  // Vertices deepest level first (a counting sort), so every child is
  // named before its parent.
  const int n = tree.num_vertices();
  const int depth = tree.depth();
  std::vector<int> start(static_cast<std::size_t>(depth) + 2, 0);
  for (int v = 0; v < n; ++v) {
    ++start[static_cast<std::size_t>(depth - tree.level(v) + 1)];
  }
  std::partial_sum(start.begin(), start.end(), start.begin());
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int v = 0; v < n; ++v) {
    order[static_cast<std::size_t>(
        start[static_cast<std::size_t>(depth - tree.level(v))]++)] = v;
  }
  std::vector<int> names(static_cast<std::size_t>(n));
  std::vector<int> key;
  for (const int v : order) {
    const graph::IntSpan kids = tree.children(v);
    int& name = names[static_cast<std::size_t>(v)];
    if (kids.empty()) {
      name = 0;
    } else if (kids.size() == 1) {
      // Path-like trees are mostly one-child vertices: a flat table.
      const std::size_t c =
          static_cast<std::size_t>(names[static_cast<std::size_t>(kids[0])]);
      if (c >= one_child_.size()) one_child_.resize(c + 1, -1);
      if (one_child_[c] < 0) one_child_[c] = next_++;
      name = one_child_[c];
    } else {
      key.clear();
      for (const int c : kids) key.push_back(names[static_cast<std::size_t>(c)]);
      std::sort(key.begin(), key.end());
      auto it = children_.find(key);
      if (it == children_.end()) it = children_.emplace(key, next_++).first;
      name = it->second;
    }
  }
  return names[static_cast<std::size_t>(tree.root())];
}

std::vector<int> tree_links(const graph::Graph& g,
                            const std::vector<SpanningTree>& trees) {
  std::vector<graph::IntSpan> parents;
  parents.reserve(trees.size());
  for (const auto& tree : trees) parents.emplace_back(tree.parents());
  return graph::parent_links(g, parents);
}

std::vector<int> edge_congestion(const graph::Graph& g,
                                 const std::vector<SpanningTree>& trees) {
  std::vector<int> congestion(static_cast<std::size_t>(g.num_edges()), 0);
  for (const int id : tree_links(g, trees)) {
    if (id >= 0) ++congestion[static_cast<std::size_t>(id)];
  }
  return congestion;
}

int max_congestion(const graph::Graph& g,
                   const std::vector<SpanningTree>& trees) {
  int best = 0;
  for (int c : edge_congestion(g, trees)) best = std::max(best, c);
  return best;
}

bool edge_disjoint(const graph::Graph& g,
                   const std::vector<SpanningTree>& trees) {
  return max_congestion(g, trees) <= 1;
}

bool opposite_reduction_flows(const graph::Graph& g,
                              const std::vector<SpanningTree>& trees) {
  // orientation[id]: +1 if reduction flows u->v (v is the parent side),
  // -1 if v->u, for the normalized edge {u < v}; 0 if unused so far.
  std::vector<int> orientation(static_cast<std::size_t>(g.num_edges()), 0);
  std::vector<int> uses(static_cast<std::size_t>(g.num_edges()), 0);
  const std::vector<int> links = tree_links(g, trees);
  const std::size_t n = static_cast<std::size_t>(g.num_vertices());
  for (std::size_t t = 0; t < trees.size(); ++t) {
    for (std::size_t x = 0; x < n; ++x) {
      const int id = links[t * n + x];
      if (id < 0) continue;  // the root
      const int p = trees[t].parent(static_cast<int>(x));
      const int dir = p > static_cast<int>(x) ? +1 : -1;  // child -> parent
      ++uses[static_cast<std::size_t>(id)];
      if (uses[static_cast<std::size_t>(id)] > 2) return false;
      if (uses[static_cast<std::size_t>(id)] == 2 && orientation[static_cast<std::size_t>(id)] == dir) return false;
      orientation[static_cast<std::size_t>(id)] = dir;
    }
  }
  return true;
}

}  // namespace pfar::trees
