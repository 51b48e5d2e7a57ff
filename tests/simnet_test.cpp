#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "simnet/allreduce_sim.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::simnet {
namespace {

using Trees = std::vector<trees::SpanningTree>;

// The simulator borrows its trees: a temporary tree vector does not compile.
static_assert(!std::is_constructible_v<AllreduceSimulator, const graph::Graph&,
                                       std::vector<trees::SpanningTree>&&,
                                       SimConfig>);

graph::Graph line_graph(int n) {
  graph::Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();
  return g;
}

graph::Graph triangle() {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.finalize();
  return g;
}

TEST(SimulatorTest, SingleTreeTwoNodesCorrectness) {
  graph::Graph g = line_graph(2);
  const Trees trees{{0, {-1, 0}}};
  AllreduceSimulator sim(g, trees, SimConfig{});
  const auto r = sim.run({10});
  EXPECT_TRUE(r.values_correct);
  EXPECT_EQ(r.total_elements, 10);
  EXPECT_GT(r.cycles, 0);
}

TEST(SimulatorTest, ChainPipelineReachesLinkRate) {
  // Deep chain: throughput must still approach 1 element/cycle for large m
  // thanks to pipelining (the paper's in-network streaming argument).
  graph::Graph g = line_graph(6);
  const Trees trees{{0, {-1, 0, 1, 2, 3, 4}}};
  AllreduceSimulator sim(g, trees, SimConfig{});
  const long long m = 5000;
  const auto r = sim.run({m});
  EXPECT_TRUE(r.values_correct);
  // One tree, link bandwidth 1: aggregate bandwidth -> 1.
  EXPECT_GT(r.aggregate_bandwidth, 0.9);
  EXPECT_LE(r.aggregate_bandwidth, 1.0);
}

TEST(SimulatorTest, StarTreeCorrectness) {
  graph::Graph g(5);
  for (int i = 1; i < 5; ++i) g.add_edge(0, i);
  g.finalize();
  const Trees trees{{0, {-1, 0, 0, 0, 0}}};
  AllreduceSimulator sim(g, trees, SimConfig{});
  const auto r = sim.run({100});
  EXPECT_TRUE(r.values_correct);
  EXPECT_GT(r.aggregate_bandwidth, 0.8);
}

TEST(SimulatorTest, TwoDisjointTreesDoubleBandwidth) {
  // Triangle: tree A = {01, 12} rooted at 0, tree B = {02, ...}. Two
  // edge-disjoint spanning trees are impossible in C3 (3 edges, need 4),
  // so use K4.
  graph::Graph g(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) g.add_edge(i, j);
  }
  g.finalize();
  // Disjoint: A = {01, 12, 23}, B = {02, 03, 13}.
  const trees::SpanningTree a{0, {-1, 0, 1, 2}};
  const trees::SpanningTree b{0, {-1, 3, 0, 0}};
  const Trees trees{a, b};
  AllreduceSimulator sim(g, trees, SimConfig{});
  const long long m = 4000;
  const auto r = sim.run({m / 2, m / 2});
  EXPECT_TRUE(r.values_correct);
  // Edge-disjoint: both trees stream at full link rate concurrently.
  EXPECT_GT(r.aggregate_bandwidth, 1.8);
  EXPECT_LE(r.aggregate_bandwidth, 2.0);
  // A tree edge puts its reduce VC on one link direction and its bcast VC
  // on the opposite one; with edge-disjoint trees no directed link carries
  // more than one VC.
  EXPECT_EQ(r.max_vcs_per_link, 1);
}

TEST(SimulatorTest, CongestedTreesShareLinkBandwidth) {
  // Two trees over the same two edges of a line: each gets half rate.
  graph::Graph g = line_graph(3);
  const trees::SpanningTree a{0, {-1, 0, 1}};
  const trees::SpanningTree b{2, {1, 2, -1}};
  const Trees trees{a, b};
  AllreduceSimulator sim(g, trees, SimConfig{});
  const long long m = 4000;
  const auto r = sim.run({m / 2, m / 2});
  EXPECT_TRUE(r.values_correct);
  EXPECT_GT(r.aggregate_bandwidth, 0.9);
  EXPECT_LT(r.aggregate_bandwidth, 1.1);  // shared: aggregate caps at ~1
}

TEST(SimulatorTest, FlowControlNeverOverflowsBuffers) {
  graph::Graph g = line_graph(5);
  SimConfig cfg;
  cfg.vc_credits = 3;  // tight buffers
  cfg.link_latency = 1;
  const Trees trees{{2, {1, 2, -1, 2, 3}}};
  AllreduceSimulator sim(g, trees, cfg);
  const auto r = sim.run({500});
  EXPECT_TRUE(r.values_correct);
  EXPECT_LE(r.max_vc_occupancy, cfg.vc_credits);
}

TEST(SimulatorTest, TightBuffersThrottleButComplete) {
  // Credits below the bandwidth-delay product: still correct, just slower.
  graph::Graph g = line_graph(4);
  SimConfig cfg;
  cfg.vc_credits = 2;
  cfg.link_latency = 8;
  const Trees trees{{0, {-1, 0, 1, 2}}};
  AllreduceSimulator sim(g, trees, cfg);
  const auto r = sim.run({300});
  EXPECT_TRUE(r.values_correct);
  EXPECT_LT(r.aggregate_bandwidth, 0.5);  // 2 credits / 16-cycle round trip
}

TEST(SimulatorTest, ZeroElementsCompletesInstantly) {
  graph::Graph g = line_graph(2);
  const Trees trees{{0, {-1, 0}}};
  AllreduceSimulator sim(g, trees, SimConfig{});
  const auto r = sim.run({0});
  EXPECT_EQ(r.cycles, 0);
  EXPECT_EQ(r.total_elements, 0);
}

TEST(SimulatorTest, UnevenSplitAcrossTrees) {
  graph::Graph g = triangle();
  const trees::SpanningTree a{0, {-1, 0, 0}};
  const trees::SpanningTree b{1, {1, -1, 1}};
  const Trees trees{a, b};
  AllreduceSimulator sim(g, trees, SimConfig{});
  const auto r = sim.run({100, 900});
  EXPECT_TRUE(r.values_correct);
  EXPECT_EQ(r.total_elements, 1000);
  // Tree 0 finishes well before tree 1.
  EXPECT_LT(r.tree_finish_cycle[0], r.tree_finish_cycle[1]);
}

TEST(SimulatorTest, RejectsBadInputs) {
  graph::Graph g = line_graph(3);
  // Tree edge (0,2) is not a physical link.
  const Trees not_links{{0, {-1, 0, 0}}};
  EXPECT_THROW(AllreduceSimulator(g, not_links, SimConfig{}),
               std::invalid_argument);
  // A root with a parent, a root outside the vertex range and parents
  // outside it are not trees at all: SpanningTree rejects them.
  EXPECT_THROW(trees::SpanningTree(0, {1, 0, 1}), std::invalid_argument);
  EXPECT_THROW(trees::SpanningTree(3, {0, 0, 1}), std::invalid_argument);
  EXPECT_THROW(trees::SpanningTree(0, {-1, 0, 3}), std::invalid_argument);
  EXPECT_THROW(trees::SpanningTree(0, {-1, -1, 1}), std::invalid_argument);
  EXPECT_THROW(trees::SpanningTree(0, {-1, 1 << 20, 1}),
               std::invalid_argument);
  const Trees trees{{0, {-1, 0, 1}}};
  SimConfig bad;
  bad.vc_credits = 0;
  EXPECT_THROW(AllreduceSimulator(g, trees, bad), std::invalid_argument);
  AllreduceSimulator ok(g, trees, SimConfig{});
  EXPECT_THROW(ok.run({1, 2}), std::invalid_argument);  // size mismatch
  EXPECT_THROW(ok.run({-5}), std::invalid_argument);
}

// Each kind of bad tree is named in the error: by the simulator where the
// tree does not fit the topology, by SpanningTree where it is no tree.
TEST(SimulatorTest, NamesEachTreeViolation) {
  graph::Graph g = line_graph(3);
  const auto message_of = [&](int root, std::vector<int> parent) {
    try {
      const Trees trees{{root, std::move(parent)}};
      AllreduceSimulator sim(g, trees, SimConfig{});
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_EQ(message_of(0, {-1, 0}), "AllreduceSimulator: tree size mismatch");
  EXPECT_EQ(message_of(3, {0, 0, 1}), "SpanningTree: bad root");
  EXPECT_EQ(message_of(1, {1, 0, 1}), "SpanningTree: bad root");
  EXPECT_EQ(message_of(0, {-1, 0, 0}),
            "AllreduceSimulator: tree edge not a physical link");
  // Vertices 1 and 2 point at each other: every edge is physical, yet
  // neither reaches the root.
  EXPECT_EQ(message_of(0, {-1, 2, 1}),
            "SpanningTree: parent vector has a cycle");
  EXPECT_EQ(message_of(0, {-1, 0, 1}), "accepted");
}

TEST(SimulatorTest, VcCountMatchesTreeLinkUsage) {
  // Each tree edge spawns exactly two VCs (reduce + bcast directions).
  graph::Graph g = line_graph(4);
  const Trees trees{{0, {-1, 0, 1, 2}}};
  AllreduceSimulator sim(g, trees, SimConfig{});
  const auto r = sim.run({10});
  EXPECT_EQ(r.num_vcs, 2 * 3);
}

TEST(SimulatorTest, LatencyAffectsSmallMessagesOnly) {
  graph::Graph g = line_graph(4);
  SimConfig fast;
  fast.link_latency = 1;
  SimConfig slow;
  slow.link_latency = 20;
  slow.vc_credits = 64;
  const Trees trees{{0, {-1, 0, 1, 2}}};
  AllreduceSimulator sim_fast(g, trees, fast);
  AllreduceSimulator sim_slow(g, trees, slow);
  const auto small_fast = sim_fast.run({4});
  const auto small_slow = sim_slow.run({4});
  EXPECT_LT(small_fast.cycles * 3, small_slow.cycles);  // latency dominates
  const auto big_fast = sim_fast.run({5000});
  const auto big_slow = sim_slow.run({5000});
  // Bandwidth-dominated: within ~5%.
  EXPECT_NEAR(static_cast<double>(big_slow.cycles) /
                  static_cast<double>(big_fast.cycles),
              1.0,
              0.05);
}

}  // namespace
}  // namespace pfar::simnet
