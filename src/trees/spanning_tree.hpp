#pragma once

#include <map>
#include <vector>

#include "graph/graph.hpp"

namespace pfar::trees {

/// A rooted spanning tree embedded in a network graph, stored as a parent
/// vector. This is the unit the paper's whole optimization problem is
/// phrased in (Section 3): an Allreduce instance reduces up the tree and
/// broadcasts back down it.
///
/// Child lists live in one flat CSR array (offsets + children), so
/// construction does O(1) allocations instead of one vector per vertex —
/// plan construction builds thousands of trees for large radices.
class SpanningTree {
 public:
  /// parent[v] = parent vertex, -1 exactly at the root.
  SpanningTree(int root, std::vector<int> parent);

  int root() const { return root_; }
  int num_vertices() const { return static_cast<int>(parent_.size()); }
  int parent(int v) const { return parent_[static_cast<std::size_t>(v)]; }
  const std::vector<int>& parents() const { return parent_; }
  graph::IntSpan children(int v) const {
    return graph::IntSpan(children_.data() + child_offsets_[static_cast<std::size_t>(v)],
                          children_.data() + child_offsets_[static_cast<std::size_t>(v + 1)]);
  }

  /// Distance of v from the root (levels computed once at construction).
  int level(int v) const { return level_[static_cast<std::size_t>(v)]; }
  /// Tree depth = max level (the paper's latency proxy).
  int depth() const { return depth_; }

  /// The n-1 tree edges as normalized graph edges.
  std::vector<graph::Edge> edges() const;

  /// True iff every tree edge exists in g, the tree spans all of g's
  /// vertices and is connected/acyclic (Theorem 7.4-style validation).
  bool is_spanning_tree_of(const graph::Graph& g) const;

 private:
  int root_;
  int depth_ = 0;
  std::vector<int> parent_;
  std::vector<int> child_offsets_;  // n+1 row offsets into children_
  std::vector<int> children_;       // n-1 entries, grouped by parent
  std::vector<int> level_;
};

/// Canonical names of rooted tree shapes (AHU): a vertex is named by the
/// sorted names of its children, so two trees get the same root name iff
/// they are isomorphic as rooted trees, whatever their vertex labels.
/// Names are shared by every tree one RootedShapes names.
class RootedShapes {
 public:
  int name(const SpanningTree& tree);

 private:
  int next_ = 1;                              // 0 names a leaf
  std::vector<int> one_child_;                // by the child's name; -1 new
  std::map<std::vector<int>, int> children_;  // two or more, sorted
};

/// graph::parent_links over the trees' parent vectors: entry t * n + v is
/// the edge id of v's parent edge in tree t, -1 at the root. Throws
/// std::invalid_argument unless every tree spans exactly g's vertices and
/// every tree edge is a link of g.
std::vector<int> tree_links(const graph::Graph& g,
                            const std::vector<SpanningTree>& trees);

/// Congestion per graph edge id: the number of trees containing that edge
/// (Section 5.1). Edges absent from every tree get 0. Throws
/// std::invalid_argument as tree_links does.
std::vector<int> edge_congestion(const graph::Graph& g,
                                 const std::vector<SpanningTree>& trees);

/// Worst-case congestion over all links.
int max_congestion(const graph::Graph& g,
                   const std::vector<SpanningTree>& trees);

/// True iff all trees are pairwise edge-disjoint (congestion <= 1).
bool edge_disjoint(const graph::Graph& g,
                   const std::vector<SpanningTree>& trees);

/// Lemma 7.8 property: for every physical link shared by exactly two
/// trees, the reduction traffic flows in opposite directions (the edge is
/// oriented towards the root differently in the two trees). Returns true
/// if the property holds for every shared link, and also requires
/// congestion <= 2. Throws std::invalid_argument as tree_links does.
bool opposite_reduction_flows(const graph::Graph& g,
                              const std::vector<SpanningTree>& trees);

}  // namespace pfar::trees
