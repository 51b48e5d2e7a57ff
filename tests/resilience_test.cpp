#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "collectives/innetwork.hpp"
#include "core/planner.hpp"
#include "core/resilience.hpp"

namespace pfar::core {
namespace {

TEST(ResilienceTest, RemoveLinksBasics) {
  const auto plan = AllreducePlanner(5).build();
  const graph::Graph& g = plan.topology();
  const graph::Edge victim = g.edge(0);
  const auto residual = remove_links(g, {victim});
  EXPECT_EQ(residual->num_edges(), g.num_edges() - 1);
  EXPECT_FALSE(residual->has_edge(victim.u, victim.v));
  EXPECT_TRUE(residual->is_connected());
  EXPECT_THROW(remove_links(*residual, {victim}), std::invalid_argument);
}

// A link with an endpoint past the last vertex is not a link. On 64
// vertices, (0, 64) is where a row-major adjacency layout would read row
// 1's first entry, which the edge (0, 1) sets.
TEST(ResilienceTest, RemoveLinksRejectsOutOfRangeLink) {
  const int n = 64;
  graph::Graph g(n);
  for (int v = 0; v < n; ++v) g.add_edge(v, (v + 1) % n);
  g.finalize();
  EXPECT_THROW(remove_links(g, {graph::Edge(0, n)}), std::invalid_argument);
  EXPECT_THROW(remove_links(g, {graph::Edge(-1, 0)}), std::invalid_argument);
}

TEST(ResilienceTest, SurvivingTreesDropOnlyAffected) {
  const auto plan = AllreducePlanner(7).build();
  const graph::Graph& g = plan.topology();
  // Fail one edge of tree 0.
  const graph::Edge victim = plan.trees()[0].edges().front();
  const auto survivors = surviving_trees(g, plan.trees(), {victim});
  // Congestion <= 2: at most two trees contain the victim link.
  EXPECT_GE(survivors.size(), plan.trees().size() - 2);
  EXPECT_LT(survivors.size(), plan.trees().size());
  for (const auto& t : survivors) {
    for (const auto& e : t.edges()) EXPECT_NE(e, victim);
  }
}

TEST(ResilienceTest, KeepSurvivingPlanStillWorks) {
  const auto plan = AllreducePlanner(5).build();
  const graph::Edge victim = plan.trees()[0].edges().front();
  const auto degraded =
      degrade_keep_surviving(plan.topology(), plan.trees(), {victim});
  EXPECT_GE(degraded.bandwidths.aggregate, 1.0);
  EXPECT_LT(degraded.bandwidths.aggregate, plan.aggregate_bandwidth());
  // Degraded trees still run a correct Allreduce on the residual network.
  const auto res = collectives::run_innetwork_allreduce(
      *degraded.topology, degraded.trees, 5000, simnet::SimConfig{});
  EXPECT_TRUE(res.sim.values_correct);
}

TEST(ResilienceTest, RepackRecoversMoreBandwidth) {
  const auto plan = AllreducePlanner(7).build();
  // Fail three links touching different trees.
  std::vector<graph::Edge> failed{
      plan.trees()[0].edges()[0],
      plan.trees()[2].edges()[5],
      plan.trees()[4].edges()[9],
  };
  // Deduplicate in case two chosen edges coincide.
  std::sort(failed.begin(), failed.end());
  failed.erase(std::unique(failed.begin(), failed.end()), failed.end());

  const auto keep =
      degrade_keep_surviving(plan.topology(), plan.trees(), failed);
  const auto repack = degrade_repack(plan.topology(), failed);
  EXPECT_GE(repack.bandwidths.aggregate, keep.bandwidths.aggregate);
  const auto res = collectives::run_innetwork_allreduce(
      *repack.topology, repack.trees, 5000, simnet::SimConfig{});
  EXPECT_TRUE(res.sim.values_correct);
}

TEST(ResilienceTest, RepackHonorsMaxTrees) {
  const auto plan = AllreducePlanner(5).build();
  const auto degraded =
      degrade_repack(plan.topology(), {plan.topology().edge(3)}, 2);
  EXPECT_EQ(degraded.trees.size(), 2u);
}

TEST(ResilienceTest, RepackBandwidthDegradesMonotonically) {
  // As failures accumulate (each failed set a superset of the previous),
  // the repacked aggregate bandwidth must never increase: fewer links can
  // only pack fewer/worse trees. This is the degradation curve the fault
  // benches plot.
  const auto plan = AllreducePlanner(7).build();
  const graph::Graph& g = plan.topology();
  std::vector<graph::Edge> failed;
  double prev = plan.aggregate_bandwidth();
  for (int i = 0; i < 8; ++i) {
    failed.push_back(g.edge((i * 23 + 5) % g.num_edges()));
    std::sort(failed.begin(), failed.end());
    failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
    const auto degraded = degrade_repack(g, failed);
    EXPECT_LE(degraded.bandwidths.aggregate, prev + 1e-9)
        << "after " << failed.size() << " failures";
    EXPECT_GT(degraded.bandwidths.aggregate, 0.0);
    prev = degraded.bandwidths.aggregate;
  }
}

TEST(ResilienceTest, ManyFailuresStayConnected) {
  // ER_q has min degree q: it tolerates many scattered failures. Fail one
  // edge per quadric-ish region and confirm the repack still spans.
  const auto plan = AllreducePlanner(7).build();
  const graph::Graph& g = plan.topology();
  std::vector<graph::Edge> failed;
  for (int i = 0; i < 10; ++i) failed.push_back(g.edge(i * 17 % g.num_edges()));
  std::sort(failed.begin(), failed.end());
  failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
  const auto degraded = degrade_repack(g, failed);
  EXPECT_GE(degraded.trees.size(), 1u);
  for (const auto& t : degraded.trees) {
    EXPECT_TRUE(t.is_spanning_tree_of(*degraded.topology));
  }
}

}  // namespace
}  // namespace pfar::core
