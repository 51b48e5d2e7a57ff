#include <gtest/gtest.h>

#include "polarfly/layout.hpp"
#include "singer/singer_graph.hpp"
#include "trees/hamiltonian.hpp"
#include "trees/low_depth.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::trees {
namespace {

using polarfly::PolarFly;
using polarfly::build_layout;

TEST(SpanningTreeTest, BasicStructure) {
  // 0 -> {1, 2}, 1 -> {3}
  SpanningTree t(0, {-1, 0, 0, 1});
  EXPECT_EQ(t.root(), 0);
  EXPECT_EQ(t.depth(), 2);
  EXPECT_EQ(t.level(0), 0);
  EXPECT_EQ(t.level(3), 2);
  EXPECT_EQ(t.children(0).size(), 2u);
  EXPECT_EQ(t.edges().size(), 3u);
}

TEST(SpanningTreeTest, RejectsMalformedParents) {
  EXPECT_THROW(SpanningTree(0, {0, 0}), std::invalid_argument);   // root has parent
  EXPECT_THROW(SpanningTree(0, {-1, -1}), std::invalid_argument); // orphan
  EXPECT_THROW(SpanningTree(0, {-1, 2, 1}), std::invalid_argument);  // cycle
  EXPECT_THROW(SpanningTree(5, {-1, 0}), std::invalid_argument);  // bad root
}

TEST(SpanningTreeTest, SpanningValidationAgainstGraph) {
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(0, 2);
  g.add_edge(1, 3);
  g.finalize();
  const SpanningTree good(0, {-1, 0, 0, 1});
  EXPECT_TRUE(good.is_spanning_tree_of(g));
  const SpanningTree bad(0, {-1, 0, 0, 2});  // edge (2,3) not in g
  EXPECT_FALSE(bad.is_spanning_tree_of(g));
}

TEST(CongestionTest, CountsOverlaps) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(0, 2);
  g.finalize();
  const SpanningTree a(0, {-1, 0, 1});
  const SpanningTree b(2, {1, 2, -1});
  const std::vector<SpanningTree> ts{a, b};
  const auto congestion = edge_congestion(g, ts);
  // Edge (0,1) in a and b; (1,2) in a and b.
  EXPECT_EQ(max_congestion(g, ts), 2);
  EXPECT_FALSE(edge_disjoint(g, ts));
  EXPECT_EQ(congestion[static_cast<std::size_t>(g.edge_id(0, 1))], 2);
  EXPECT_EQ(congestion[static_cast<std::size_t>(g.edge_id(0, 2))], 0);
}

// A tree edge that is not a link is rejected, never indexed: the tree
// below hangs vertex 2 off vertex 0 on the path 0-1-2.
TEST(CongestionTest, RejectsTreeEdgesOutsideTheGraph) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  const std::vector<SpanningTree> ts{SpanningTree(0, {-1, 0, 0})};
  EXPECT_THROW(opposite_reduction_flows(g, ts), std::invalid_argument);
  EXPECT_THROW(edge_congestion(g, ts), std::invalid_argument);
  EXPECT_FALSE(ts[0].is_spanning_tree_of(g));
  // A tree over a different vertex count is rejected too.
  const std::vector<SpanningTree> small{SpanningTree(0, {-1, 0})};
  EXPECT_THROW(edge_congestion(g, small), std::invalid_argument);
  EXPECT_FALSE(small[0].is_spanning_tree_of(g));
}

// Theorems 7.4-7.6 and Lemma 7.8, across odd prime powers.
class LowDepthTheorems : public ::testing::TestWithParam<int> {};

TEST_P(LowDepthTheorems, ProducesQSpanningTrees) {
  const int q = GetParam();
  const PolarFly pf(q);
  const auto layout = build_layout(pf);
  const auto ts = build_low_depth_trees(pf, layout);
  ASSERT_EQ(static_cast<int>(ts.size()), q);
  for (const auto& t : ts) {
    EXPECT_TRUE(t.is_spanning_tree_of(pf.graph()));  // Theorem 7.4
  }
}

TEST_P(LowDepthTheorems, DepthAtMostThree) {
  const int q = GetParam();
  const PolarFly pf(q);
  const auto ts = build_low_depth_trees(pf, build_layout(pf));
  for (const auto& t : ts) {
    EXPECT_LE(t.depth(), 3);  // Theorem 7.5
  }
}

TEST_P(LowDepthTheorems, CongestionAtMostTwo) {
  const int q = GetParam();
  const PolarFly pf(q);
  const auto ts = build_low_depth_trees(pf, build_layout(pf));
  EXPECT_LE(max_congestion(pf.graph(), ts), 2);  // Theorem 7.6
}

TEST_P(LowDepthTheorems, RootsAreClusterCenters) {
  const int q = GetParam();
  const PolarFly pf(q);
  const auto layout = build_layout(pf);
  const auto ts = build_low_depth_trees(pf, layout);
  for (int i = 0; i < q; ++i) {
    EXPECT_EQ(ts[static_cast<std::size_t>(i)].root(), layout.centers[static_cast<std::size_t>(i)]);
  }
}

TEST_P(LowDepthTheorems, OppositeReductionFlowsOnSharedLinks) {
  // Lemma 7.8: any doubly-used link carries the two trees' reduction
  // traffic in opposite directions.
  const int q = GetParam();
  const PolarFly pf(q);
  const auto ts = build_low_depth_trees(pf, build_layout(pf));
  EXPECT_TRUE(opposite_reduction_flows(pf.graph(), ts));
}

TEST_P(LowDepthTheorems, WorksForEveryStarterQuadric) {
  const int q = GetParam();
  if (q > 9) GTEST_SKIP() << "starter sweep kept small";
  const PolarFly pf(q);
  for (int s = 0; s <= q; ++s) {
    const auto layout = build_layout(pf, s);
    const auto ts = build_low_depth_trees(pf, layout);
    for (const auto& t : ts) {
      EXPECT_TRUE(t.is_spanning_tree_of(pf.graph()));
      EXPECT_LE(t.depth(), 3);
    }
    EXPECT_LE(max_congestion(pf.graph(), ts), 2);
  }
}

INSTANTIATE_TEST_SUITE_P(OddPrimePowers, LowDepthTheorems,
                         ::testing::Values(3, 5, 7, 9, 11, 13, 17, 19, 25,
                                           27));

TEST(HamiltonianTreeTest, MidpointRootDepth) {
  // Lemma 7.17: depth (N-1)/2.
  const auto d = singer::build_difference_set(5);
  const auto set = singer::find_disjoint_hamiltonians(d);
  for (const auto& path : set.paths) {
    const auto tree = hamiltonian_path_tree(path);
    EXPECT_EQ(tree.depth(), (d.n - 1) / 2);
  }
}

TEST(HamiltonianTreeTest, TreesAreSpanningAndDisjoint) {
  const singer::SingerGraph s(7);
  const auto set = singer::find_disjoint_hamiltonians(s.difference_set());
  const auto ts = hamiltonian_trees(set);
  EXPECT_EQ(static_cast<int>(ts.size()), 4);  // floor((7+1)/2)
  for (const auto& t : ts) {
    EXPECT_TRUE(t.is_spanning_tree_of(s.graph()));
  }
  EXPECT_TRUE(edge_disjoint(s.graph(), ts));
  EXPECT_EQ(max_congestion(s.graph(), ts), 1);
}

TEST(HamiltonianTreeTest, RejectsNonHamiltonianPath) {
  const auto d = singer::build_difference_set(4);
  // (0, 14) is non-Hamiltonian (Table 2).
  const auto path = singer::build_alternating_path(d, 0, 14);
  EXPECT_THROW(hamiltonian_path_tree(path), std::invalid_argument);
}

}  // namespace
}  // namespace pfar::trees
