#include "collectives/routed.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contracts.hpp"

namespace pfar::collectives {

RoutedNetwork::RoutedNetwork(const graph::Graph& g)
    : g_(&g), n_(g.num_vertices()) {
  PFAR_REQUIRE(n_ >= 1, n_);
  next_hop_.reserve(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
  // One deterministic BFS tree per destination, row dst of the table.
  graph::BfsTree tree;
  for (int dst = 0; dst < n_; ++dst) {
    g.bfs_tree(dst, tree);
    next_hop_.insert(next_hop_.end(), tree.parent.begin(), tree.parent.end());
  }
}

namespace {

// The neighbor of `cur` on the path toward `dst` (row dst of the n x n
// next-hop table); throws when dst is unreachable.
int step(const std::vector<int>& next_hop, int n, int cur, int dst) {
  const int next = next_hop[static_cast<std::size_t>(dst) * static_cast<std::size_t>(n) + static_cast<std::size_t>(cur)];
  if (next < 0) throw std::invalid_argument("RoutedNetwork: unreachable");
  return next;
}

}  // namespace

int RoutedNetwork::hops(int src, int dst) const {
  PFAR_REQUIRE(src >= 0 && src < n_ && dst >= 0 && dst < n_, src, dst, n_);
  int d = 0;
  for (int cur = src; cur != dst; cur = step(next_hop_, n_, cur, dst)) ++d;
  return d;
}

std::vector<int> RoutedNetwork::path(int src, int dst) const {
  PFAR_REQUIRE(src >= 0 && src < n_ && dst >= 0 && dst < n_, src, dst, n_);
  std::vector<int> out{src};
  while (out.back() != dst) out.push_back(step(next_hop_, n_, out.back(), dst));
  return out;
}

ScheduleCost schedule_cost(const RoutedNetwork& net,
                           const std::vector<Round>& schedule, double alpha,
                           double beta) {
  PFAR_REQUIRE(alpha >= 0.0 && beta >= 0.0, alpha, beta);
  ScheduleCost cost;
  const graph::Graph& g = net.graph();
  // Per-round element load of directed link u -> v, keyed
  // 2 * edge_id(u, v) + (u > v).
  std::vector<long long> load(2 * static_cast<std::size_t>(g.num_edges()), 0);
  for (const auto& round : schedule) {
    if (round.empty()) continue;
    ++cost.rounds;
    int max_hops = 0;
    std::vector<std::size_t> touched;
    for (const auto& msg : round) {
      if (msg.src == msg.dst || msg.elements == 0) continue;
      const auto path = net.path(msg.src, msg.dst);
      max_hops = std::max(max_hops, static_cast<int>(path.size()) - 1);
      cost.total_elements_moved += msg.elements;
      for (std::size_t i = 1; i < path.size(); ++i) {
        const int u = path[i - 1], v = path[i];
        const std::size_t key = 2 * static_cast<std::size_t>(g.edge_id(u, v)) + (u > v);
        if (load[key] == 0) touched.push_back(key);
        load[key] += msg.elements;
      }
    }
    long long max_load = 0;
    for (const std::size_t key : touched) {
      max_load = std::max(max_load, load[key]);
      load[key] = 0;  // reset for the next round
    }
    cost.max_link_elements = std::max(cost.max_link_elements, max_load);
    cost.total_time += alpha * max_hops + beta * static_cast<double>(max_load);
  }
  return cost;
}

}  // namespace pfar::collectives
