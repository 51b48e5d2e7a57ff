#include "collectives/innetwork.hpp"

#include <algorithm>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace pfar::collectives {

// pfar-lint: allow(contract-coverage) thin delegation; graph::Graph::bfs_tree requires the root in range
trees::SpanningTree bfs_tree(const graph::Graph& g, int root) {
  graph::BfsTree tree;
  g.bfs_tree(root, tree);
  return trees::SpanningTree(root, std::move(tree.parent));
}

InNetworkResult run_planned_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& spanning_trees,
    std::vector<long long> split, model::TreeBandwidths predicted,
    const simnet::SimConfig& config) {
  if (spanning_trees.empty()) {
    throw std::invalid_argument("run_planned_allreduce: no trees");
  }
  PFAR_REQUIRE(split.size() == spanning_trees.size() &&
                   predicted.per_tree.size() == spanning_trees.size(),
               split.size(), predicted.per_tree.size(), spanning_trees.size());
  InNetworkResult out;
  for (long long s : split) {
    PFAR_REQUIRE(s >= 0, s);
    out.m += s;
  }
  for (const auto& t : spanning_trees) {
    out.max_depth = std::max(out.max_depth, t.depth());
  }
  out.split = std::move(split);
  out.predicted = std::move(predicted);
  simnet::AllreduceSimulator sim(topology, spanning_trees, config);
  out.sim = sim.run(out.split, &out.period);
  out.efficiency_vs_model =
      out.sim.aggregate_bandwidth / out.predicted.aggregate;
  return out;
}

InNetworkResult run_innetwork_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& spanning_trees, long long m,
    const simnet::SimConfig& config, SplitPolicy policy) {
  if (spanning_trees.empty()) {
    throw std::invalid_argument("run_innetwork_allreduce: no trees");
  }
  PFAR_REQUIRE(m >= 0, m);
  model::TreeBandwidths predicted =
      model::compute_tree_bandwidths(topology, spanning_trees, 1.0);
  std::vector<long long> split =
      policy == SplitPolicy::kOptimal
          ? model::optimal_split(m, predicted)
          : util::apportion(m,
                            std::vector<double>(spanning_trees.size(), 1.0));
  return run_planned_allreduce(topology, spanning_trees, std::move(split),
                               std::move(predicted), config);
}

long long undelivered_elements(const InNetworkResult& run) {
  PFAR_REQUIRE(run.sim.tree_failed.size() <= run.split.size(),
               run.sim.tree_failed.size(), run.split.size());
  long long lost = 0;
  for (std::size_t t = 0; t < run.sim.tree_failed.size(); ++t) {
    if (run.sim.tree_failed[t]) lost += run.split[t] - run.sim.tree_completed[t];
  }
  return lost;
}

long long total_flits(const simnet::SimResult& sim) {
  return std::accumulate(sim.link_flits.begin(), sim.link_flits.end(), 0LL);
}

}  // namespace pfar::collectives
