#include "collectives/logical.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <string>

#include "trees/spanning_tree.hpp"
#include "util/contracts.hpp"

namespace pfar::collectives {

namespace {

// `tree` as a SpanningTree over n vertices, whose constructor rejects a
// bad root, a second parentless vertex, a parent outside [0, n) and a
// parent cycle (a vertex that is its own parent included).
trees::SpanningTree checked(const LogicalTree& tree, int n, const char* who) {
  if (static_cast<int>(tree.parent.size()) != n) {
    throw std::invalid_argument(std::string(who) + ": tree size");
  }
  return trees::SpanningTree(tree.root, tree.parent);
}

}  // namespace

LogicalBandwidths logical_tree_bandwidths(
    const RoutedNetwork& net, const std::vector<LogicalTree>& trees,
    double link_bandwidth) {
  if (link_bandwidth <= 0.0) {
    throw std::invalid_argument("logical_tree_bandwidths: bandwidth <= 0");
  }
  const graph::Graph& g = net.graph();
  const int n = g.num_vertices();
  for (const auto& tree : trees) checked(tree, n, "logical_tree_bandwidths");

  // Directed link u -> v is 2 * edge_id(u, v) + (u > v). Resources are the
  // used directed links, with dense ids in first-use order.
  std::vector<int> dense(2 * static_cast<std::size_t>(g.num_edges()), -1);
  std::vector<int> congestion;  // per dense id: crossings by all trees
  std::vector<int> tree_mult;   // per dense id: crossings by this tree
  model::FlowRows rows;
  std::vector<int> path;
  for (const auto& tree : trees) {
    const std::size_t first = rows.resources.size();
    const auto add_path = [&](int src, int dst) {
      net.path(src, dst, path);
      for (std::size_t i = 1; i < path.size(); ++i) {
        const int u = path[i - 1], v = path[i];
        int& id = dense[2 * static_cast<std::size_t>(g.edge_id(u, v)) + (u > v)];
        if (id < 0) {
          id = static_cast<int>(congestion.size());
          congestion.push_back(0);
          tree_mult.push_back(0);
        }
        if (tree_mult[static_cast<std::size_t>(id)]++ == 0) rows.resources.push_back(id);
      }
    };
    for (int v = 0; v < n; ++v) {
      if (v == tree.root) continue;
      add_path(v, tree.parent[static_cast<std::size_t>(v)]);  // reduction: child -> parent
      add_path(tree.parent[static_cast<std::size_t>(v)], v);  // broadcast: parent -> child
    }
    for (std::size_t k = first; k < rows.resources.size(); ++k) {
      int& m = tree_mult[static_cast<std::size_t>(rows.resources[k])];
      rows.multiplicity.push_back(m);
      congestion[static_cast<std::size_t>(rows.resources[k])] += m;
      m = 0;
    }
    rows.offsets.push_back(static_cast<int>(rows.resources.size()));
  }

  LogicalBandwidths out{model::max_min_fair_shares(
      static_cast<int>(congestion.size()), rows, link_bandwidth)};
  for (int c : congestion) out.max_link_flows = std::max(out.max_link_flows, c);
  PFAR_ENSURE(out.per_tree.size() == trees.size(), trees.size());
  return out;
}

std::vector<LogicalTree> random_logical_trees(int num_nodes, int count,
                                              int arity, util::Rng& rng) {
  if (num_nodes < 1 || count < 0 || arity < 1) {
    throw std::invalid_argument("random_logical_trees: bad args");
  }
  std::vector<LogicalTree> out;
  out.reserve(static_cast<std::size_t>(count));
  for (int t = 0; t < count; ++t) {
    std::vector<int> perm(static_cast<std::size_t>(num_nodes));
    std::iota(perm.begin(), perm.end(), 0);
    for (int i = num_nodes - 1; i > 0; --i) {
      const int j = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(i + 1)));
      std::swap(perm[static_cast<std::size_t>(i)], perm[static_cast<std::size_t>(j)]);
    }
    LogicalTree tree;
    tree.root = perm[0];
    tree.parent.assign(static_cast<std::size_t>(num_nodes), -1);
    for (int i = 1; i < num_nodes; ++i) {
      tree.parent[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
          perm[static_cast<std::size_t>((i - 1) / arity)];
    }
    out.push_back(std::move(tree));
  }
  PFAR_ENSURE(static_cast<int>(out.size()) == count, count);
  return out;
}

int logical_depth(const RoutedNetwork& net, const LogicalTree& tree) {
  const auto t = checked(tree, net.graph().num_vertices(), "logical_depth");
  // Breadth-first from the root, so a parent's depth is known first.
  std::vector<int> depth(tree.parent.size(), 0);
  std::vector<int> frontier{t.root()};
  int best = 0;
  for (std::size_t head = 0; head < frontier.size(); ++head) {
    const int u = frontier[head];
    for (int c : t.children(u)) {
      depth[static_cast<std::size_t>(c)] =
          depth[static_cast<std::size_t>(u)] + net.hops(c, u);
      best = std::max(best, depth[static_cast<std::size_t>(c)]);
      frontier.push_back(c);
    }
  }
  PFAR_ENSURE(frontier.size() == tree.parent.size(), frontier.size());
  return best;
}

}  // namespace pfar::collectives
