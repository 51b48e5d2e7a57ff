#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <utility>
#include <vector>

#include "collectives/host_allreduce.hpp"
#include "collectives/innetwork.hpp"
#include "collectives/routed.hpp"
#include "model/congestion_model.hpp"
#include "polarfly/layout.hpp"
#include "singer/disjoint.hpp"
#include "singer/singer_graph.hpp"
#include "trees/hamiltonian.hpp"
#include "trees/low_depth.hpp"
#include "util/contracts.hpp"

namespace pfar::collectives {
namespace {

TEST(BfsTreeTest, SpansAndIsShallow) {
  const polarfly::PolarFly pf(7);
  const auto t = bfs_tree(pf.graph(), 0);
  EXPECT_TRUE(t.is_spanning_tree_of(pf.graph()));
  EXPECT_LE(t.depth(), 2);  // diameter-2 topology
}

TEST(InNetworkTest, LowDepthSimulationMatchesAlgorithmOne) {
  // Cor 7.7 / Theorem 5.1 end-to-end: simulated aggregate bandwidth of the
  // low-depth solution approaches the Algorithm 1 prediction (q/2).
  const int q = 5;
  const polarfly::PolarFly pf(q);
  const auto ts = trees::build_low_depth_trees(pf, polarfly::build_layout(pf));
  const auto res =
      run_innetwork_allreduce(pf.graph(), ts, 40000, simnet::SimConfig{});
  EXPECT_TRUE(res.sim.values_correct);
  EXPECT_NEAR(res.predicted.aggregate, q / 2.0, 1e-9);
  EXPECT_GT(res.efficiency_vs_model, 0.9);
  EXPECT_LE(res.efficiency_vs_model, 1.02);
  EXPECT_EQ(std::accumulate(res.split.begin(), res.split.end(), 0LL), 40000);
}

TEST(InNetworkTest, EdgeDisjointSimulationHitsOptimal) {
  const int q = 5;
  const singer::SingerGraph sg(q);
  const auto set = singer::find_disjoint_hamiltonians(sg.difference_set());
  const auto ts = trees::hamiltonian_trees(set);
  const auto res =
      run_innetwork_allreduce(sg.graph(), ts, 60000, simnet::SimConfig{});
  EXPECT_TRUE(res.sim.values_correct);
  EXPECT_NEAR(res.predicted.aggregate, (q + 1) / 2.0, 1e-9);
  EXPECT_GT(res.efficiency_vs_model, 0.9);
  // Zero congestion: exactly one tree's reduce+bcast VC pair per link
  // direction pair.
  EXPECT_LE(res.sim.max_vcs_per_link, 2);
}

TEST(InNetworkTest, PlannedRunIsTheCoreOfTheOneShotEntry) {
  const polarfly::PolarFly pf(5);
  const auto ts = trees::build_low_depth_trees(pf, polarfly::build_layout(pf));
  const simnet::SimConfig cfg;
  const auto bw = model::compute_tree_bandwidths(pf.graph(), ts, 1.0);
  const auto one_shot = run_innetwork_allreduce(pf.graph(), ts, 5000, cfg);
  const auto core = run_planned_allreduce(
      pf.graph(), ts, model::optimal_split(5000, bw), bw, cfg);
  EXPECT_EQ(core.m, one_shot.m);
  EXPECT_EQ(core.split, one_shot.split);
  EXPECT_EQ(core.max_depth, one_shot.max_depth);
  EXPECT_EQ(core.sim.cycles, one_shot.sim.cycles);
  EXPECT_EQ(core.sim.link_flits, one_shot.sim.link_flits);
  EXPECT_EQ(core.efficiency_vs_model, one_shot.efficiency_vs_model);
  EXPECT_EQ(undelivered_elements(core), 0);
  EXPECT_EQ(total_flits(core.sim),
            std::accumulate(core.sim.link_flits.begin(),
                            core.sim.link_flits.end(), 0LL));

  // A caller-supplied split runs verbatim; `predicted` is whatever the
  // caller planned with.
  std::vector<long long> skewed(ts.size(), 0);
  skewed.front() = 700;
  const auto verbatim = run_planned_allreduce(pf.graph(), ts, skewed, bw, cfg);
  EXPECT_TRUE(verbatim.sim.values_correct);
  EXPECT_EQ(verbatim.m, 700);
  EXPECT_EQ(verbatim.split, skewed);
  EXPECT_EQ(verbatim.predicted.aggregate, bw.aggregate);

  util::contracts::ScopedThrowHandler guard;
  EXPECT_THROW(run_planned_allreduce(pf.graph(), ts, {5000}, bw, cfg),
               util::contracts::ContractViolation);
  skewed.front() = -1;
  EXPECT_THROW(run_planned_allreduce(pf.graph(), ts, skewed, bw, cfg),
               util::contracts::ContractViolation);
}

TEST(InNetworkTest, UniformSplitIsSlowerUnderAsymmetricBandwidth) {
  // With symmetric trees the split doesn't matter; build an asymmetric
  // case: low-depth trees where Algorithm 1 can assign unequal B_i... for
  // PolarFly all trees get B/2, so instead compare optimal vs uniform on a
  // mixed set (one congested pair + one disjoint tree) on K4.
  graph::Graph g(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) g.add_edge(i, j);
  }
  g.finalize();
  const trees::SpanningTree a(0, {-1, 0, 1, 2});  // chain
  const trees::SpanningTree b(0, {-1, 0, 1, 2});  // same chain: congested
  const trees::SpanningTree c(0, {-1, 3, 0, 0});  // disjoint from a, b
  const std::vector<trees::SpanningTree> ts{a, b, c};
  const long long m = 30000;
  const auto opt =
      run_innetwork_allreduce(g, ts, m, simnet::SimConfig{},
                              SplitPolicy::kOptimal);
  const auto uni =
      run_innetwork_allreduce(g, ts, m, simnet::SimConfig{},
                              SplitPolicy::kUniform);
  EXPECT_TRUE(opt.sim.values_correct);
  EXPECT_TRUE(uni.sim.values_correct);
  // a and b get 1/2 each, c gets 1: optimal split loads c twice as much.
  EXPECT_LT(opt.sim.cycles, uni.sim.cycles);
}

TEST(RoutedNetworkTest, PathsAreShortest) {
  const polarfly::PolarFly pf(5);
  const RoutedNetwork net(pf.graph());
  const auto dist0 = pf.graph().bfs_distances(0);
  for (int v = 0; v < pf.n(); ++v) {
    EXPECT_EQ(net.hops(0, v), dist0[static_cast<std::size_t>(v)]);
    const auto path = net.path(0, v);
    EXPECT_EQ(static_cast<int>(path.size()) - 1, dist0[static_cast<std::size_t>(v)]);
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), v);
    for (std::size_t i = 1; i < path.size(); ++i) {
      EXPECT_TRUE(pf.graph().has_edge(path[i - 1], path[i]));
    }
  }
}

TEST(RoutedNetworkTest, DiameterTwoPathsOnPolarFly) {
  const polarfly::PolarFly pf(7);
  const RoutedNetwork net(pf.graph());
  for (int u = 0; u < pf.n(); u += 7) {
    for (int v = 0; v < pf.n(); v += 5) {
      if (u != v) {
        EXPECT_LE(net.hops(u, v), 2);
      }
    }
  }
}

TEST(RoutedNetworkTest, UnreachableDestinationThrows) {
  // Two components: {0, 1} and {2, 3}.
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  g.finalize();
  const RoutedNetwork net(g);
  EXPECT_EQ(net.hops(0, 0), 0);
  EXPECT_EQ(net.hops(3, 2), 1);
  EXPECT_EQ(net.path(1, 0), (std::vector<int>{1, 0}));
  for (const auto& [src, dst] : {std::pair{0, 2}, std::pair{3, 1}}) {
    EXPECT_THROW(static_cast<void>(net.hops(src, dst)), std::invalid_argument);
    EXPECT_THROW(static_cast<void>(net.path(src, dst)), std::invalid_argument);
  }
}

TEST(ScheduleCostTest, SingleMessage) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  const RoutedNetwork net(g);
  const std::vector<Round> sched{{Message{0, 2, 10}}};
  const auto cost = schedule_cost(net, sched, 2.0, 0.5);
  // 2 hops, 10 elements on each of two links -> max load 10.
  EXPECT_DOUBLE_EQ(cost.total_time, 2.0 * 2 + 0.5 * 10);
  EXPECT_EQ(cost.rounds, 1);
  EXPECT_EQ(cost.max_link_elements, 10);
}

TEST(ScheduleCostTest, ContentionAddsUp) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  const RoutedNetwork net(g);
  // Two messages crossing link 1->2 in the same round contend.
  const std::vector<Round> sched{
      {Message{0, 2, 10}, Message{1, 2, 20}}};
  const auto cost = schedule_cost(net, sched, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(cost.total_time, 30.0);
}

TEST(ScheduleCostTest, OppositeDirectionsDoNotContend) {
  graph::Graph g(2);
  g.add_edge(0, 1);
  g.finalize();
  const RoutedNetwork net(g);
  // 0->1 and 1->0 are two directed links; each carries its own load.
  const std::vector<Round> sched{{Message{0, 1, 10}, Message{1, 0, 20}},
                                 {Message{0, 1, 5}}};
  const auto cost = schedule_cost(net, sched, 0.0, 1.0);
  EXPECT_EQ(cost.max_link_elements, 20);
  EXPECT_DOUBLE_EQ(cost.total_time, 25.0);
}

class HostAlgorithms
    : public ::testing::TestWithParam<std::tuple<HostAlgorithm, int>> {};

TEST_P(HostAlgorithms, DataCorrectness) {
  const auto [algo, p] = GetParam();
  DataExecutor exec(p, 37);  // awkward vector size to stress chunking
  run_host_allreduce(algo, p, 37, exec);
  EXPECT_TRUE(exec.verify());
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAndSizes, HostAlgorithms,
    ::testing::Combine(::testing::Values(HostAlgorithm::kRing,
                                         HostAlgorithm::kRecursiveDoubling,
                                         HostAlgorithm::kHalvingDoubling),
                       // powers of two, odd, prime, and PolarFly sizes
                       ::testing::Values(2, 3, 4, 5, 7, 8, 13, 16, 21, 31)));

TEST(HostBaselineTest, RingOnPolarFlyIsCorrectAndCosted) {
  const polarfly::PolarFly pf(3);  // N = 13
  const RoutedNetwork net(pf.graph());
  std::vector<int> placement(static_cast<std::size_t>(pf.n()));
  std::iota(placement.begin(), placement.end(), 0);
  const auto res = run_host_baseline(HostAlgorithm::kRing, net, placement,
                                     13000, 1.0, 1.0);
  EXPECT_TRUE(res.correct);
  EXPECT_EQ(res.cost.rounds, 2 * (13 - 1));
  EXPECT_GT(res.cost.total_time, 0.0);
}

TEST(HostBaselineTest, RecursiveDoublingRoundCount) {
  const polarfly::PolarFly pf(3);
  const RoutedNetwork net(pf.graph());
  std::vector<int> placement(static_cast<std::size_t>(pf.n()));
  std::iota(placement.begin(), placement.end(), 0);
  const auto res = run_host_baseline(HostAlgorithm::kRecursiveDoubling, net,
                                     placement, 1000, 1.0, 1.0);
  EXPECT_TRUE(res.correct);
  // N = 13: fold-in + 3 exchange rounds + fold-out.
  EXPECT_EQ(res.cost.rounds, 1 + 3 + 1);
}

TEST(HostBaselineTest, InNetworkBeatsHostRingOnBandwidth) {
  // The paper's headline: multi-tree in-network Allreduce moves far less
  // data per link and wins by ~radix/2 over host-based schemes.
  const int q = 5;
  const polarfly::PolarFly pf(q);
  const RoutedNetwork net(pf.graph());
  std::vector<int> placement(static_cast<std::size_t>(pf.n()));
  std::iota(placement.begin(), placement.end(), 0);
  const long long m = 31000;
  // Host ring: alpha=0 beta=1 time (pure bandwidth).
  const auto ring = run_host_baseline(HostAlgorithm::kRing, net, placement,
                                      m, 0.0, 1.0);
  // In-network low-depth: time = m / (q/2) cycles at beta=1 per element.
  const auto ts = trees::build_low_depth_trees(pf, polarfly::build_layout(pf));
  const auto innet =
      run_innetwork_allreduce(pf.graph(), ts, m, simnet::SimConfig{});
  EXPECT_TRUE(innet.sim.values_correct);
  EXPECT_LT(innet.sim.cycles, ring.cost.total_time);
}

}  // namespace
}  // namespace pfar::collectives
