#include "collectives/routed.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/contracts.hpp"

namespace pfar::collectives {

RoutedNetwork::RoutedNetwork(const graph::Graph& g)
    : g_(&g), n_(g.num_vertices()) {
  PFAR_REQUIRE(n_ >= 1, n_);
  next_hop_.reserve(static_cast<std::size_t>(n_) * static_cast<std::size_t>(n_));
  dist_.reserve(next_hop_.capacity());
  // One deterministic BFS tree per destination, row dst of both tables.
  graph::BfsTree tree;
  for (int dst = 0; dst < n_; ++dst) {
    g.bfs_tree(dst, tree);
    next_hop_.insert(next_hop_.end(), tree.parent.begin(), tree.parent.end());
    dist_.insert(dist_.end(), tree.dist.begin(), tree.dist.end());
  }
}

int RoutedNetwork::hops(int src, int dst) const {
  PFAR_REQUIRE(src >= 0 && src < n_ && dst >= 0 && dst < n_, src, dst, n_);
  const int d = dist_[static_cast<std::size_t>(dst) * static_cast<std::size_t>(n_) + static_cast<std::size_t>(src)];
  if (d < 0) throw std::invalid_argument("RoutedNetwork: unreachable");
  return d;
}

std::vector<int> RoutedNetwork::path(int src, int dst) const {
  PFAR_REQUIRE(src >= 0 && src < n_ && dst >= 0 && dst < n_, src, dst, n_);
  std::vector<int> out{src};
  int cur = src;
  while (cur != dst) {
    cur = next_hop_[static_cast<std::size_t>(dst) * static_cast<std::size_t>(n_) + static_cast<std::size_t>(cur)];
    if (cur < 0) throw std::invalid_argument("RoutedNetwork: unreachable");
    out.push_back(cur);
  }
  return out;
}

ScheduleCost schedule_cost(const RoutedNetwork& net,
                           const std::vector<Round>& schedule, double alpha,
                           double beta) {
  PFAR_REQUIRE(alpha >= 0.0 && beta >= 0.0, alpha, beta);
  ScheduleCost cost;
  const int n = net.graph().num_vertices();
  std::vector<long long> load(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), 0);
  for (const auto& round : schedule) {
    if (round.empty()) continue;
    ++cost.rounds;
    int max_hops = 0;
    std::vector<std::pair<int, int>> touched;
    for (const auto& msg : round) {
      if (msg.src == msg.dst || msg.elements == 0) continue;
      const auto path = net.path(msg.src, msg.dst);
      max_hops = std::max(max_hops, static_cast<int>(path.size()) - 1);
      cost.total_elements_moved += msg.elements;
      for (std::size_t i = 1; i < path.size(); ++i) {
        const std::size_t key =
            static_cast<std::size_t>(path[i - 1]) * static_cast<std::size_t>(n) + static_cast<std::size_t>(path[i]);
        if (load[key] == 0) touched.emplace_back(path[i - 1], path[i]);
        load[key] += msg.elements;
      }
    }
    long long max_load = 0;
    for (const auto& [a, b] : touched) {
      const std::size_t key = static_cast<std::size_t>(a) * static_cast<std::size_t>(n) + static_cast<std::size_t>(b);
      max_load = std::max(max_load, load[key]);
      load[key] = 0;  // reset for the next round
    }
    cost.max_link_elements = std::max(cost.max_link_elements, max_load);
    cost.total_time += alpha * max_hops + beta * static_cast<double>(max_load);
  }
  return cost;
}

}  // namespace pfar::collectives
