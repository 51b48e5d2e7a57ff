#include <gtest/gtest.h>

#include "topo/topologies.hpp"
#include "trees/packing.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::topo {
namespace {

TEST(TorusTest, TwoDimensional) {
  const auto g = torus({4, 4});
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 32);  // 2 links per node
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_EQ(g.min_degree(), 4);
  EXPECT_EQ(g.diameter(), 4);  // 2 + 2
  EXPECT_TRUE(g.is_connected());
}

TEST(TorusTest, ThreeDimensional) {
  const auto g = torus({3, 3, 3});
  EXPECT_EQ(g.num_vertices(), 27);
  EXPECT_EQ(g.max_degree(), 6);
  EXPECT_EQ(g.diameter(), 3);
}

TEST(TorusTest, DimTwoAvoidsDuplicateWrap) {
  // With dims[i] == 2, wrap would duplicate the mesh edge; generator must
  // fall back to single links (degree 1 in that axis).
  const auto g = torus({2, 4});
  EXPECT_EQ(g.num_vertices(), 8);
  EXPECT_EQ(g.max_degree(), 3);  // 1 (axis of size 2) + 2 (ring of 4)
  EXPECT_TRUE(g.is_connected());
}

TEST(HypercubeTest, Structure) {
  const auto g = hypercube(4);
  EXPECT_EQ(g.num_vertices(), 16);
  EXPECT_EQ(g.num_edges(), 32);  // n*d/2
  EXPECT_EQ(g.max_degree(), 4);
  EXPECT_EQ(g.min_degree(), 4);
  EXPECT_EQ(g.diameter(), 4);
  EXPECT_THROW(hypercube(0), std::invalid_argument);
}

TEST(HyperXTest, FullyConnectedAxes) {
  const auto g = hyperx({3, 4});
  EXPECT_EQ(g.num_vertices(), 12);
  // Each node: (3-1) + (4-1) = 5 links.
  EXPECT_EQ(g.max_degree(), 5);
  EXPECT_EQ(g.min_degree(), 5);
  EXPECT_EQ(g.diameter(), 2);  // one hop per axis
  EXPECT_EQ(g.num_edges(), 12 * 5 / 2);
}

class SlimFlyTest : public ::testing::TestWithParam<int> {};

TEST_P(SlimFlyTest, MmsInvariants) {
  const int q = GetParam();
  const auto g = slimfly(q);
  EXPECT_EQ(g.num_vertices(), 2 * q * q);
  // Regular of degree (3q-1)/2 for q == 1 mod 4.
  EXPECT_EQ(g.max_degree(), (3 * q - 1) / 2);
  EXPECT_EQ(g.min_degree(), (3 * q - 1) / 2);
  EXPECT_EQ(g.diameter(), 2);
  EXPECT_TRUE(g.is_connected());
}

INSTANTIATE_TEST_SUITE_P(QCongruentOneModFour, SlimFlyTest,
                         ::testing::Values(5, 9, 13, 17));

TEST(SlimFlyTest, RejectsInvalidQ) {
  EXPECT_THROW(slimfly(7), std::invalid_argument);   // 7 % 4 == 3
  EXPECT_THROW(slimfly(6), std::invalid_argument);   // not a prime power
  EXPECT_THROW(slimfly(4), std::invalid_argument);   // 4 % 4 == 0
}

TEST(SlimFlyTest, ScalesMoreNodesPerRadixThanPolarFlyNeeds) {
  // MMS graphs hold 2q^2 nodes at radix (3q-1)/2 — the scaling-efficiency
  // comparison the PolarFly paper makes; both beat tori by orders of
  // magnitude at diameter 2.
  const auto sf = slimfly(5);   // radix 7, 50 nodes
  EXPECT_GT(sf.num_vertices(), 36);  // torus at radix 4 with diameter 4...
}

TEST(CompleteTest, Kn) {
  // A one-dimensional HyperX is the complete graph K_n.
  const auto g = hyperx({6});
  EXPECT_EQ(g.num_edges(), 15);
  EXPECT_EQ(g.diameter(), 1);
}

TEST(PackingBoundTest, Formulas) {
  EXPECT_EQ(tree_packing_bound(hyperx({6})), 3);       // 15/5
  EXPECT_EQ(tree_packing_bound(torus({4, 4})), 2);     // 32/15
  EXPECT_EQ(tree_packing_bound(hypercube(4)), 2);      // 32/15
  EXPECT_EQ(tree_packing_bound(hyperx({4, 4})), 3);    // 48/15
}

TEST(DescribeTest, Fields) {
  const auto s = describe("torus-4x4", torus({4, 4}));
  EXPECT_EQ(s.name, "torus-4x4");
  EXPECT_EQ(s.nodes, 16);
  EXPECT_EQ(s.edges, 32);
  EXPECT_EQ(s.radix, 4);
  EXPECT_EQ(s.diameter, 4);
  EXPECT_EQ(s.packing_bound, 2);
}

class GreedyPacking : public ::testing::TestWithParam<int> {};

TEST(GreedyPackingTest, TreesAreDisjointAndSpanning) {
  for (const auto& g : {hyperx({8}), torus({4, 4}), hypercube(4),
                        hyperx({3, 3})}) {
    const auto trees = trees::greedy_tree_packing(g);
    EXPECT_GE(static_cast<int>(trees.size()), 1);
    EXPECT_LE(static_cast<int>(trees.size()), tree_packing_bound(g));
    for (const auto& t : trees) {
      EXPECT_TRUE(t.is_spanning_tree_of(g));
    }
    EXPECT_TRUE(trees::edge_disjoint(g, trees));
  }
}

TEST(GreedyPackingTest, CompleteGraphAchievesBound) {
  // K_{2k} packs k edge-disjoint spanning trees; greedy finds them.
  const auto g = hyperx({8});
  const auto trees = trees::greedy_tree_packing(g);
  EXPECT_EQ(static_cast<int>(trees.size()), 4);
}

TEST(GreedyPackingTest, MaxTreesCap) {
  const auto g = hyperx({8});
  const auto trees = trees::greedy_tree_packing(g, 2);
  EXPECT_EQ(trees.size(), 2u);
}

TEST(GreedyPackingTest, SparseGraphGivesOneTree) {
  // A tree itself packs exactly one spanning tree.
  graph::Graph g(5);
  for (int i = 0; i + 1 < 5; ++i) g.add_edge(i, i + 1);
  g.finalize();
  const auto trees = trees::greedy_tree_packing(g);
  EXPECT_EQ(trees.size(), 1u);
}

}  // namespace
}  // namespace pfar::topo
