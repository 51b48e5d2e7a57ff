#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

namespace pfar::graph {

/// Undirected edge with normalized endpoint order (u < v).
struct Edge {
  int u = 0;
  int v = 0;

  Edge() = default;
  Edge(int a, int b) : u(a < b ? a : b), v(a < b ? b : a) {}

  friend bool operator==(const Edge&, const Edge&) = default;
  friend auto operator<=>(const Edge&, const Edge&) = default;
};

/// Lightweight contiguous view over ints (a neighbor row, an edge-id row,
/// a child list). Iterable, indexable, sized — the subset of the
/// std::vector interface the planning code uses.
class IntSpan {
 public:
  IntSpan() = default;
  IntSpan(const int* begin, const int* end) : begin_(begin), end_(end) {}
  explicit IntSpan(const std::vector<int>& v)
      : IntSpan(v.data(), v.data() + v.size()) {}

  const int* begin() const { return begin_; }
  const int* end() const { return end_; }
  std::size_t size() const { return static_cast<std::size_t>(end_ - begin_); }
  bool empty() const { return begin_ == end_; }
  int operator[](std::size_t i) const { return begin_[i]; }
  int front() const { return *begin_; }
  int back() const { return *(end_ - 1); }

 private:
  const int* begin_ = nullptr;
  const int* end_ = nullptr;
};

/// A breadth-first search tree toward one root (Graph::bfs_tree).
struct BfsTree {
  /// parent[v]: the neighbor of v one hop closer to the root; -1 at the
  /// root and at unreachable vertices.
  std::vector<int> parent;
  /// dist[v]: hops from v to the root; -1 if unreachable.
  std::vector<int> dist;
  /// Reached vertices in visit order (nondecreasing dist), root first.
  std::vector<int> order;
};

/// Simple undirected graph on vertices [0, n). Self-loops are rejected
/// (PolarFly drops quadric self-loops; callers track them separately).
///
/// Storage is two-stage. Before `finalize()` the graph is a mutable edge
/// list plus per-vertex builder adjacency. `finalize()` compacts it into a
/// flat CSR layout — row offsets, a sorted neighbor array, and an aligned
/// per-neighbor edge-id array — whose size is O(n + E). Queries then cost
/// O(log d) for `edge_id` and `has_edge` (one sorted-row search), and
/// edge ids are stable (the lexicographic rank of the normalized edge) and
/// index the congestion model's and the simulator's per-link arrays. Tree edges map to ids in bulk through
/// parent_links.
class Graph {
 public:
  explicit Graph(int n);

  int num_vertices() const { return n_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  /// Pre-sizes builder storage for `edge_count` more edges of
  /// `degree_hint` expected degree. Purely an optimization — generators
  /// that know their degree (PolarFly: q+1) skip the push_back regrowth.
  void reserve(int edge_count, int degree_hint);

  /// Adds edge {u, v}; duplicate additions are idempotent after finalize()
  /// only if the caller avoided them — adding the same edge twice throws.
  void add_edge(int u, int v);

  /// Builds the CSR layout and the edge-id index. Must be called after the
  /// last add_edge and before queries that need edge ids. Throws
  /// std::logic_error on duplicate edges.
  void finalize();

  /// True iff {u, v} is an edge: edge_id(u, v) >= 0, so any vertex out of
  /// range is simply absent. Finalized graphs only.
  bool has_edge(int u, int v) const { return edge_id(u, v) >= 0; }

  /// Dense id of edge {u, v} in [0, num_edges()); -1 if absent, including
  /// when u or v is out of range. Ids are the lexicographic rank of the
  /// normalized edge, as in the seed implementation (pinned by tests).
  int edge_id(int u, int v) const;

  const Edge& edge(int id) const { return edges_[static_cast<std::size_t>(id)]; }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Sorted (ascending) neighbor row of v once finalized; insertion-order
  /// builder list before that.
  IntSpan neighbors(int v) const;

  /// Edge ids aligned index-for-index with neighbors(v): the id of edge
  /// {v, neighbors(v)[i]}. Lets hot loops retire the O(log d) edge_id
  /// lookup. Finalized graphs only.
  IntSpan neighbor_edge_ids(int v) const;

  int degree(int v) const;

  int min_degree() const;
  int max_degree() const;

  /// BFS hop distances from `src` (-1 for unreachable).
  std::vector<int> bfs_distances(int src) const;

  /// Min-hop BFS from `root`: a FIFO queue scanning neighbors() in
  /// ascending order, and each vertex's parent is the vertex that first
  /// discovered it. Every min-hop router (collectives::RoutedNetwork,
  /// background_link_rates_ppm) routes on these trees. Reuses `out`'s
  /// storage, so a loop over roots needs O(n) memory.
  void bfs_tree(int root, BfsTree& out) const;

  bool is_connected() const;

  /// Exact diameter via all-sources BFS; -1 if disconnected. O(V*E).
  int diameter() const;

 private:
  int n_;
  bool finalized_ = false;
  std::vector<Edge> edges_;
  // Builder stage only; released by finalize().
  std::vector<std::vector<int>> build_adj_;
  // CSR stage: row offsets (n+1), neighbors sorted ascending per row, and
  // the edge id of each (row, neighbor) slot.
  std::vector<int> offsets_;
  std::vector<int> csr_adj_;
  std::vector<int> csr_eid_;
};

/// Link ids of a tree set's parent edges, resolved in one vertex-major
/// pass: v's CSR row is indexed while it is hot, then the parent of v in
/// every tree is looked up in it, so the pass costs O(E + trees * n)
/// whatever the trees' shapes. `parents[t]` is tree t's parent array,
/// one entry per vertex and -1 at the root. Returns the flat table whose
/// entry t * n + v is the edge id of {v, parents[t][v]}, or -1 where that
/// parent is -1. Throws std::invalid_argument when a parent array's
/// length is not n or a parent is out of range or not a neighbor of its
/// vertex. Finalized graphs only.
std::vector<int> parent_links(const Graph& g, std::span<const IntSpan> parents);

}  // namespace pfar::graph
