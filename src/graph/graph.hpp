#pragma once

#include <cstddef>
#include <cstdint>
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
/// per-neighbor edge-id array — plus, when the memory budget allows, a
/// packed bitset adjacency matrix (one cache-friendly row of n bits per
/// vertex). Queries then cost: O(1) `has_edge`, O(log d) `edge_id`,
/// O(n/64) word-parallel `common_neighbor_count`, and stable edge ids
/// (lexicographic rank of the normalized edge) usable as array indices by
/// the congestion model and the simulator.
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

  /// Builds the CSR layout, the edge-id index and the bitset adjacency.
  /// Must be called after the last add_edge and before queries that need
  /// edge ids. Throws std::logic_error on duplicate edges.
  void finalize();

  bool has_edge(int u, int v) const;

  /// Dense id of edge {u, v} in [0, num_edges()); -1 if absent. Ids are
  /// the lexicographic rank of the normalized edge, as in the seed
  /// implementation (pinned by tests).
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
  /// simnet::TrafficSimulator, background_link_rates_ppm) routes on these
  /// trees. Reuses `out`'s storage, so a loop over roots needs O(n) memory.
  void bfs_tree(int root, BfsTree& out) const;

  bool is_connected() const;

  /// Exact diameter via all-sources BFS; -1 if disconnected. O(V*E).
  int diameter() const;

  /// Number of common neighbors of distinct u, v (the number of 2-paths
  /// between them). ER_q must have at most one (Theorem 6.1). Word-parallel
  /// (AND + popcount over packed rows) when the bitset is resident.
  int common_neighbor_count(int u, int v) const;

  /// True once finalize() materialized the packed adjacency matrix.
  bool has_adjacency_bitset() const { return !bits_.empty(); }

  /// Memory budget for the packed adjacency matrix (process-wide). Graphs
  /// whose n*n bit matrix would exceed the budget skip it and fall back to
  /// binary-search `has_edge` / merge-scan `common_neighbor_count`.
  /// Affects graphs finalized after the call. Returns the previous budget.
  static std::size_t set_max_bitset_bytes(std::size_t bytes);

 private:
  bool bit(int u, int v) const {
    return (bits_[static_cast<std::size_t>(u) * words_per_row_ +
                  static_cast<std::size_t>(v >> 6)] >>
            (v & 63)) &
           1u;
  }

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
  // Packed adjacency rows (n rows of words_per_row_ 64-bit words); empty
  // when over budget.
  std::vector<std::uint64_t> bits_;
  std::size_t words_per_row_ = 0;
};

/// Neighbor -> slot map of one finalized CSR row at a time, for
/// vertex-major passes that resolve the parent of v in many trees while
/// v's row is hot: load(v) indexes v's row in O(degree), then slot(p) is
/// p's index in it (aligned with neighbor_edge_ids(v)) in O(1). Entries
/// left over from earlier rows are harmless: a slot counts only when the
/// loaded row holds p there.
class RowSlots {
 public:
  explicit RowSlots(const Graph& g)
      : g_(&g), slot_of_(static_cast<std::size_t>(g.num_vertices()), 0) {}

  /// Indexes v's neighbor row and returns it.
  IntSpan load(int v) {
    row_ = g_->neighbors(v);
    for (std::size_t i = 0; i < row_.size(); ++i) {
      slot_of_[static_cast<std::size_t>(row_[i])] = static_cast<int>(i);
    }
    return row_;
  }

  /// Index of p in the loaded row; -1 when p is not a neighbor of the
  /// loaded vertex (any p, out-of-range ones included).
  int slot(int p) const {
    if (p < 0 || p >= g_->num_vertices()) return -1;
    const int s = slot_of_[static_cast<std::size_t>(p)];
    return static_cast<std::size_t>(s) < row_.size() &&
                   row_[static_cast<std::size_t>(s)] == p
               ? s
               : -1;
  }

 private:
  const Graph* g_;
  IntSpan row_;
  std::vector<int> slot_of_;
};

/// Disjoint-set union with path halving; used for spanning-tree validation.
class UnionFind {
 public:
  explicit UnionFind(int n);
  int find(int x);
  /// Returns false if x and y were already in the same set.
  bool unite(int x, int y);
  int num_components() const { return components_; }

 private:
  std::vector<int> parent_;
  std::vector<int> rank_;
  int components_;
};

}  // namespace pfar::graph
