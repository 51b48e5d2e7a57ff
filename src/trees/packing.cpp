#include "trees/packing.hpp"

#include <vector>

namespace pfar::trees {

std::vector<SpanningTree> greedy_tree_packing(const graph::Graph& g,
                                              int max_trees) {
  const int n = g.num_vertices();
  std::vector<SpanningTree> out;
  if (n < 2) return out;
  std::vector<char> used(static_cast<std::size_t>(g.num_edges()), 0);

  for (;;) {
    if (max_trees >= 0 && static_cast<int>(out.size()) >= max_trees) break;
    // DFS over unused edges. DFS trees are path-heavy (at most two tree
    // edges per vertex along the spine), so they spread edge usage evenly
    // across vertices — a BFS tree would be a star on dense graphs and
    // exhaust the root's links after one round. The root and the neighbor
    // scan offset rotate per tree to diversify shapes further.
    const int round = static_cast<int>(out.size());
    const int root = static_cast<int>((static_cast<unsigned>(round) * 2654435761u) % static_cast<unsigned>(n));
    std::vector<int> parent(static_cast<std::size_t>(n), -1);
    std::vector<char> seen(static_cast<std::size_t>(n), 0);
    std::vector<int> stack{root};
    seen[static_cast<std::size_t>(root)] = 1;
    int covered = 1;
    while (!stack.empty()) {
      const int u = stack.back();
      const auto nbrs = g.neighbors(u);
      const auto ids = g.neighbor_edge_ids(u);
      const int deg = static_cast<int>(nbrs.size());
      int next = -1;
      for (int i = 0; i < deg; ++i) {
        const auto k = static_cast<std::size_t>((i + round + u) % deg);
        const int w = nbrs[k];
        if (!seen[static_cast<std::size_t>(w)] && !used[static_cast<std::size_t>(ids[k])]) {
          next = w;
          // Claimed now: both endpoints are seen from here on, so no later
          // test of this walk reads the mark, and a walk that fails to
          // span ends the packing.
          used[static_cast<std::size_t>(ids[k])] = 1;
          break;
        }
      }
      if (next < 0) {
        stack.pop_back();
        continue;
      }
      seen[static_cast<std::size_t>(next)] = 1;
      parent[static_cast<std::size_t>(next)] = u;
      ++covered;
      stack.push_back(next);
    }
    if (covered < n) break;  // residual graph no longer spans
    out.emplace_back(root, std::move(parent));
  }
  return out;
}

}  // namespace pfar::trees
