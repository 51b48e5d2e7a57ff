#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace pfar::collectives {

/// Deterministic shortest-path routing on a topology (lowest-id next hop),
/// used to cost host-based baselines whose point-to-point messages must
/// traverse physical links. PolarFly's diameter-2 keeps every path at 1-2
/// hops.
class RoutedNetwork {
 public:
  explicit RoutedNetwork(const graph::Graph& g);

  const graph::Graph& graph() const { return *g_; }
  /// Length of path(src, dst), walked along the next-hop table (at most
  /// the diameter in steps).
  int hops(int src, int dst) const;
  /// Writes the vertex sequence src..dst along the deterministic shortest
  /// path into `out`, a caller-owned buffer reused across calls.
  /// Both throw std::invalid_argument when dst is unreachable from src.
  void path(int src, int dst, std::vector<int>& out) const;

 private:
  const graph::Graph* g_;
  // next_hop_[dst * n + src]: neighbor of src on the path toward dst.
  std::vector<int> next_hop_;
  int n_;
};

/// One point-to-point message of a host-based collective schedule.
struct Message {
  int src = 0;  // physical node
  int dst = 0;
  long long elements = 0;
};

/// A communication round: messages that proceed concurrently.
using Round = std::vector<Message>;

/// Alpha-beta cost of a routed schedule. Round time =
/// alpha * (max hops in the round) + beta * (max per-directed-link element
/// load after routing); rounds are serialized (host-based algorithms
/// synchronize between rounds).
struct ScheduleCost {
  double total_time = 0.0;
  long long rounds = 0;
  long long total_elements_moved = 0;  // sum over messages
  long long max_link_elements = 0;     // worst single-link load in a round
};

ScheduleCost schedule_cost(const RoutedNetwork& net,
                           const std::vector<Round>& schedule, double alpha,
                           double beta);

}  // namespace pfar::collectives
