// Cross-module integration tests: the two independent constructions of the
// same mathematical object must agree on every computable invariant, and
// the full pipeline (construction -> trees -> model -> simulator) must be
// self-consistent across design points and simulator configurations.

#include <gtest/gtest.h>

#include <algorithm>

#include "collectives/innetwork.hpp"
#include "core/planner.hpp"
#include "oracle/reference_math.hpp"
#include "polarfly/erq.hpp"
#include "singer/singer_graph.hpp"

namespace pfar {
namespace {

class ConstructionAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ConstructionAgreement, ProjectiveAndSingerInvariantsMatch) {
  // Theorem 6.6: S_q is isomorphic to ER_q. Full isomorphism testing is
  // unnecessary — compare the complete invariant set the paper relies on.
  const int q = GetParam();
  const polarfly::PolarFly pf(q);
  const singer::SingerGraph sg(q);

  EXPECT_EQ(pf.n(), sg.graph().num_vertices());
  EXPECT_EQ(pf.graph().num_edges(), sg.graph().num_edges());
  EXPECT_EQ(pf.quadrics().size(), sg.reflection().size());

  // Degree sequences must be identical multisets.
  std::vector<int> deg_pf, deg_sg;
  for (int v = 0; v < pf.n(); ++v) {
    deg_pf.push_back(pf.graph().degree(v));
    deg_sg.push_back(sg.graph().degree(v));
  }
  std::sort(deg_pf.begin(), deg_pf.end());
  std::sort(deg_sg.begin(), deg_sg.end());
  EXPECT_EQ(deg_pf, deg_sg);

  // Quadrics/reflection points have degree q in both.
  for (int w : pf.quadrics()) EXPECT_EQ(pf.graph().degree(w), q);
  for (long long r : sg.reflection()) {
    EXPECT_EQ(sg.graph().degree(static_cast<int>(r)), q);
  }

  // Triangle counts agree (another isomorphism invariant): count via
  // common neighbors of adjacent pairs.
  if (pf.n() <= 200) {
    auto triangles = [](const graph::Graph& g) {
      long long count = 0;
      for (const auto& e : g.edges()) {
        count += oracle::common_neighbor_count(g, e.u, e.v);
      }
      return count / 3;
    };
    EXPECT_EQ(triangles(pf.graph()), triangles(sg.graph()));
  }
}

INSTANTIATE_TEST_SUITE_P(PrimePowers, ConstructionAgreement,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 9, 11, 13));

class PipelineSweep : public ::testing::TestWithParam<int> {};

TEST_P(PipelineSweep, SimulatedBandwidthTracksModelAcrossConfigs) {
  const int q = GetParam();
  const auto plan = core::AllreducePlanner(q).build();
  // Sweep link latencies and buffer sizes: the steady-state bandwidth must
  // track Algorithm 1 whenever credits cover the round trip.
  for (int latency : {1, 4, 8}) {
    simnet::SimConfig cfg;
    cfg.link_latency = latency;
    cfg.vc_credits = 4 * latency + 4;
    const auto res = plan.simulate(20000, cfg);
    EXPECT_TRUE(res.sim.values_correct) << "latency=" << latency;
    EXPECT_GT(res.efficiency_vs_model, 0.85) << "latency=" << latency;
    EXPECT_LE(res.sim.max_vc_occupancy, cfg.vc_credits);
  }
}

INSTANTIATE_TEST_SUITE_P(OddPrimePowers, PipelineSweep,
                         ::testing::Values(3, 5, 7, 9));

TEST(IntegrationTest, EdgeDisjointUsesEveryLinkForOddQ) {
  // For odd q the (q+1)/2 Hamiltonian trees use q(q+1)^2/2 edges total =
  // every link of the network exactly once: the embedding saturates the
  // bisection. Check via simulator link stats: every directed link moves
  // flits.
  const auto plan =
      core::AllreducePlanner(5).solution(core::Solution::kEdgeDisjoint).build();
  const auto res = plan.simulate(600);
  long long idle_links = 0;
  for (long long f : res.sim.link_flits) {
    if (f == 0) ++idle_links;
  }
  EXPECT_EQ(idle_links, 0);
}

TEST(IntegrationTest, SingleTreeLeavesLinksIdle) {
  // Contrast: one BFS tree touches only N-1 of the q(q+1)^2/2 links.
  const auto plan =
      core::AllreducePlanner(5).solution(core::Solution::kSingleTree).build();
  const auto res = plan.simulate(600);
  long long busy = 0;
  for (long long f : res.sim.link_flits) {
    if (f > 0) ++busy;
  }
  EXPECT_EQ(busy, 2LL * (plan.num_nodes() - 1));  // both directions of tree edges
}

TEST(IntegrationTest, TreeFinishTimesNearlyEqualUnderOptimalSplit) {
  // Theorem 5.1's optimality condition: equal per-tree completion times.
  const auto plan = core::AllreducePlanner(7).build();
  const auto res = plan.simulate(50000);
  ASSERT_TRUE(res.sim.values_correct);
  const auto& finish = res.sim.tree_finish_cycle;
  const auto [lo, hi] = std::minmax_element(finish.begin(), finish.end());
  // Within 5% of each other for a bandwidth-dominated run.
  EXPECT_LT(static_cast<double>(*hi - *lo),
            0.05 * static_cast<double>(*hi));
}

}  // namespace
}  // namespace pfar
