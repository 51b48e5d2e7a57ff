#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "simnet/allreduce_sim.hpp"

namespace pfar::simnet {
namespace {

using Trees = std::vector<trees::SpanningTree>;

graph::Graph line_graph(int n) {
  graph::Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();
  return g;
}

TEST(PacketizationTest, HeaderOverheadReducesBandwidth) {
  graph::Graph g = line_graph(3);
  const Trees chain{{0, {-1, 0, 1}}};
  SimConfig raw;  // payload 1, no header
  SimConfig framed;
  framed.packet_payload = 4;
  framed.packet_header_flits = 1;  // 80% efficiency
  AllreduceSimulator raw_sim(g, chain, raw);
  AllreduceSimulator framed_sim(g, chain, framed);
  const auto a = raw_sim.run({8000});
  const auto b = framed_sim.run({8000});
  EXPECT_TRUE(a.values_correct);
  EXPECT_TRUE(b.values_correct);
  EXPECT_NEAR(a.aggregate_bandwidth, 1.0, 0.05);
  EXPECT_NEAR(b.aggregate_bandwidth, 0.8, 0.05);
}

TEST(PacketizationTest, LargePacketsAmortizeHeaders) {
  graph::Graph g = line_graph(3);
  const Trees chain{{0, {-1, 0, 1}}};
  SimConfig small;
  small.packet_payload = 2;
  small.packet_header_flits = 2;  // 50%
  SimConfig big;
  big.packet_payload = 32;
  big.packet_header_flits = 2;  // ~94%
  big.vc_credits = 16;
  AllreduceSimulator small_sim(g, chain, small);
  AllreduceSimulator big_sim(g, chain, big);
  const auto a = small_sim.run({16000});
  const auto b = big_sim.run({16000});
  EXPECT_TRUE(a.values_correct);
  EXPECT_TRUE(b.values_correct);
  EXPECT_GT(b.aggregate_bandwidth, 1.5 * a.aggregate_bandwidth);
}

TEST(PacketizationTest, PartialTailPacketHandled) {
  // m not divisible by payload: the final short packet must stay aligned
  // across children and verify exactly.
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(0, 3);
  g.finalize();
  SimConfig cfg;
  cfg.packet_payload = 7;
  const Trees trees{{0, {-1, 0, 0, 0}}};
  AllreduceSimulator sim(g, trees, cfg);
  const auto r = sim.run({995});  // 995 = 142*7 + 1
  EXPECT_TRUE(r.values_correct);
  EXPECT_EQ(r.total_elements, 995);
}

TEST(EngineStatsTest, LowDepthTreesNeedOneReductionPerPort) {
  // Lemma 7.8's hardware consequence: every router input port feeds at
  // most one tree's reduction, despite congestion 2.
  const auto plan = core::AllreducePlanner(7).build();
  const auto res = plan.simulate(100);
  EXPECT_EQ(res.sim.max_reductions_per_input_port, 1);
}

TEST(EngineStatsTest, EdgeDisjointTreesNeedOneReductionPerPort) {
  const auto plan =
      core::AllreducePlanner(7).solution(core::Solution::kEdgeDisjoint).build();
  const auto res = plan.simulate(100);
  EXPECT_EQ(res.sim.max_reductions_per_input_port, 1);
}

TEST(PipelineFillTest, FirstDeliveryTracksTreeDepth) {
  // The paper's latency story in one measurement: depth-3 trees fill their
  // pipeline an order of magnitude sooner than depth-(N-1)/2 trees.
  const auto shallow = core::AllreducePlanner(7).build();
  const auto deep =
      core::AllreducePlanner(7).solution(core::Solution::kEdgeDisjoint).build();
  const auto rs = shallow.simulate(1000);
  const auto rd = deep.simulate(1000);
  long long first_shallow = 1 << 30, first_deep = 1 << 30;
  for (long long c : rs.sim.tree_first_delivery) {
    first_shallow = std::min(first_shallow, c);
  }
  for (long long c : rd.sim.tree_first_delivery) {
    first_deep = std::min(first_deep, c);
  }
  // Shallow: ~2*3 hops of (latency+1); deep: ~2*28 hops.
  EXPECT_LT(first_shallow * 4, first_deep);
}

TEST(EngineStatsTest, OverlappingReductionDirectionsAreCounted) {
  // Two chains reduced in the SAME direction over the same links: both
  // reductions consume the same input ports.
  graph::Graph g = line_graph(3);
  const Trees trees{{2, {1, 2, -1}}, {2, {1, 2, -1}}};
  AllreduceSimulator sim(g, trees, SimConfig{});
  const auto r = sim.run({50, 50});
  EXPECT_TRUE(r.values_correct);
  EXPECT_EQ(r.max_reductions_per_input_port, 2);
}

}  // namespace
}  // namespace pfar::simnet
