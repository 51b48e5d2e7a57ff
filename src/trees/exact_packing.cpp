#include "trees/exact_packing.hpp"

#include <algorithm>
#include <deque>
#include <queue>

namespace pfar::trees {
namespace {

/// Partitions edges of g into k forests of maximum total size via
/// matroid-union augmentation.
class ForestPacker {
 public:
  ForestPacker(const graph::Graph& g, int k)
      : g_(g),
        k_(k),
        n_(g.num_vertices()),
        owner_(static_cast<std::size_t>(g.num_edges()), -1),
        adj_(static_cast<std::size_t>(k), std::vector<std::vector<std::pair<int, int>>>(static_cast<std::size_t>(n_))) {}

  /// Attempts to place every edge; returns the number placed.
  int pack() {
    int placed = 0;
    for (int e = 0; e < g_.num_edges(); ++e) {
      if (insert(e)) ++placed;
    }
    return placed;
  }

  /// Forest i's edge ids.
  std::vector<int> forest_edges(int i) const {
    std::vector<int> out;
    for (int e = 0; e < g_.num_edges(); ++e) {
      if (owner_[static_cast<std::size_t>(e)] == i) out.push_back(e);
    }
    return out;
  }

 private:
  // Path between u and v inside forest i as edge ids; empty if
  // disconnected there.
  std::vector<int> forest_path(int i, int u, int v) const {
    std::vector<int> prev_edge(static_cast<std::size_t>(n_), -1);
    std::vector<int> prev_node(static_cast<std::size_t>(n_), -1);
    std::vector<char> seen(static_cast<std::size_t>(n_), 0);
    std::queue<int> frontier;
    seen[static_cast<std::size_t>(u)] = 1;
    frontier.push(u);
    while (!frontier.empty() && !seen[static_cast<std::size_t>(v)]) {
      const int x = frontier.front();
      frontier.pop();
      for (const auto& [y, eid] : adj_[static_cast<std::size_t>(i)][static_cast<std::size_t>(x)]) {
        if (!seen[static_cast<std::size_t>(y)]) {
          seen[static_cast<std::size_t>(y)] = 1;
          prev_edge[static_cast<std::size_t>(y)] = eid;
          prev_node[static_cast<std::size_t>(y)] = x;
          frontier.push(y);
        }
      }
    }
    std::vector<int> path;
    if (!seen[static_cast<std::size_t>(v)]) return path;
    for (int x = v; x != u; x = prev_node[static_cast<std::size_t>(x)]) path.push_back(prev_edge[static_cast<std::size_t>(x)]);
    return path;
  }

  bool connected_in_forest(int i, int u, int v) const {
    return !forest_path(i, u, v).empty() || u == v;
  }

  void attach(int e, int i) {
    owner_[static_cast<std::size_t>(e)] = i;
    const auto& edge = g_.edge(e);
    adj_[static_cast<std::size_t>(i)][static_cast<std::size_t>(edge.u)].emplace_back(edge.v, e);
    adj_[static_cast<std::size_t>(i)][static_cast<std::size_t>(edge.v)].emplace_back(edge.u, e);
  }

  void detach(int e) {
    const int i = owner_[static_cast<std::size_t>(e)];
    const auto& edge = g_.edge(e);
    auto scrub = [&](int x) {
      auto& list = adj_[static_cast<std::size_t>(i)][static_cast<std::size_t>(x)];
      list.erase(std::find_if(list.begin(), list.end(),
                              [&](const auto& p) { return p.second == e; }));
    };
    scrub(edge.u);
    scrub(edge.v);
    owner_[static_cast<std::size_t>(e)] = -1;
  }

  // Augmenting insertion: BFS over edges that would have to move.
  bool insert(int e0) {
    const int num_edges = g_.num_edges();
    std::vector<int> parent_edge(static_cast<std::size_t>(num_edges), -2);   // -2 = unvisited
    std::vector<int> parent_forest(static_cast<std::size_t>(num_edges), -1);
    parent_edge[static_cast<std::size_t>(e0)] = -1;
    std::deque<int> frontier{e0};

    while (!frontier.empty()) {
      const int f = frontier.front();
      frontier.pop_front();
      const auto& fe = g_.edge(f);
      for (int i = 0; i < k_; ++i) {
        const auto path = forest_path(i, fe.u, fe.v);
        if (path.empty()) {
          // f fits into forest i: apply the swap chain back to e0.
          int cur = f;
          int target = i;
          for (;;) {
            if (owner_[static_cast<std::size_t>(cur)] >= 0) detach(cur);
            attach(cur, target);
            const int p = parent_edge[static_cast<std::size_t>(cur)];
            if (p < 0) break;
            target = parent_forest[static_cast<std::size_t>(cur)];
            cur = p;
          }
          return true;
        }
        for (int gid : path) {
          if (parent_edge[static_cast<std::size_t>(gid)] == -2) {
            parent_edge[static_cast<std::size_t>(gid)] = f;
            parent_forest[static_cast<std::size_t>(gid)] = i;
            frontier.push_back(gid);
          }
        }
      }
    }
    return false;
  }

  const graph::Graph& g_;
  int k_;
  int n_;
  std::vector<int> owner_;
  // adj_[forest][vertex] = (neighbor, edge id)
  std::vector<std::vector<std::vector<std::pair<int, int>>>> adj_;
};

}  // namespace

std::vector<SpanningTree> exact_tree_packing(const graph::Graph& g) {
  const int n = g.num_vertices();
  std::vector<SpanningTree> out;
  if (n < 2 || !g.is_connected()) return out;
  const int bound = g.num_edges() / (n - 1);
  for (int k = bound; k >= 1; --k) {
    ForestPacker packer(g, k);
    const long long need = static_cast<long long>(k) * (n - 1);
    if (packer.pack() < need) continue;
    // Each forest has exactly n-1 edges and is acyclic => spanning tree.
    for (int i = 0; i < k; ++i) {
      graph::Graph forest(n);
      for (int e : packer.forest_edges(i)) {
        forest.add_edge(g.edge(e).u, g.edge(e).v);
      }
      forest.finalize();
      // Root at 0; derive parents by BFS.
      std::vector<int> parent(static_cast<std::size_t>(n), -1);
      std::vector<char> seen(static_cast<std::size_t>(n), 0);
      std::queue<int> frontier;
      seen[0] = 1;
      frontier.push(0);
      while (!frontier.empty()) {
        const int u = frontier.front();
        frontier.pop();
        for (int w : forest.neighbors(u)) {
          if (!seen[static_cast<std::size_t>(w)]) {
            seen[static_cast<std::size_t>(w)] = 1;
            parent[static_cast<std::size_t>(w)] = u;
            frontier.push(w);
          }
        }
      }
      out.emplace_back(0, std::move(parent));
    }
    return out;
  }
  return out;
}

}  // namespace pfar::trees
