#include <gtest/gtest.h>

#include "polarfly/erq.hpp"
#include "topo/topologies.hpp"
#include "trees/exact_packing.hpp"
#include "trees/packing.hpp"

namespace pfar::trees {
namespace {

void expect_valid_packing(const graph::Graph& g,
                          const std::vector<SpanningTree>& trees) {
  for (const auto& t : trees) {
    EXPECT_TRUE(t.is_spanning_tree_of(g));
  }
  EXPECT_TRUE(edge_disjoint(g, trees));
}

TEST(ExactPackingTest, CompleteGraphs) {
  // K_{2k} packs exactly k spanning trees; K_{2k+1} packs k as well
  // (floor(E/(N-1)) = floor((2k+1)/2) = k, attained).
  for (int n : {4, 5, 6, 7, 8}) {
    const auto g = topo::hyperx({n});
    const auto trees = exact_tree_packing(g);
    EXPECT_EQ(static_cast<int>(trees.size()), n / 2) << "K_" << n;
    expect_valid_packing(g, trees);
  }
}

TEST(ExactPackingTest, TorusAndHypercube) {
  // 2d torus (4-regular, 2N edges): Nash-Williams number 2.
  const auto t44 = topo::torus({4, 4});
  const auto torus_trees = exact_tree_packing(t44);
  EXPECT_EQ(torus_trees.size(), 2u);
  expect_valid_packing(t44, torus_trees);
  // Hypercube d=4: E = 32, N-1 = 15 -> exact 2.
  const auto h4 = topo::hypercube(4);
  const auto cube_trees = exact_tree_packing(h4);
  EXPECT_EQ(cube_trees.size(), 2u);
  expect_valid_packing(h4, cube_trees);
}

TEST(ExactPackingTest, SparseGraphs) {
  graph::Graph path(5);
  for (int i = 0; i + 1 < 5; ++i) path.add_edge(i, i + 1);
  path.finalize();
  EXPECT_EQ(exact_tree_packing(path).size(), 1u);

  graph::Graph cycle(5);
  for (int i = 0; i < 5; ++i) cycle.add_edge(i, (i + 1) % 5);
  cycle.finalize();
  EXPECT_EQ(exact_tree_packing(cycle).size(), 1u);

  graph::Graph disconnected(4);
  disconnected.add_edge(0, 1);
  disconnected.finalize();
  EXPECT_TRUE(exact_tree_packing(disconnected).empty());
}

TEST(ExactPackingTest, PolarFlyMatchesSectionSevenThree) {
  // Independent confirmation of the paper's Section 7.3: the exact
  // Tutte/Nash-Williams packing number of ER_q equals floor((q+1)/2), the
  // count the Hamiltonian construction achieves.
  for (int q : {3, 4, 5, 7}) {
    const polarfly::PolarFly pf(q);
    const auto trees = exact_tree_packing(pf.graph());
    EXPECT_EQ(static_cast<int>(trees.size()), (q + 1) / 2) << "q=" << q;
    expect_valid_packing(pf.graph(), trees);
  }
}

TEST(ExactPackingTest, GreedyNeverBeatsExact) {
  for (const auto& g : {topo::hyperx({7}), topo::torus({4, 4}),
                        topo::hyperx({3, 4}), topo::hypercube(4)}) {
    const auto greedy = greedy_tree_packing(g);
    const auto exact = exact_tree_packing(g);
    EXPECT_LE(greedy.size(), exact.size());
  }
}

TEST(ExactPackingTest, HasKDisjointPredicate) {
  // K_6 holds 3 edge-disjoint spanning trees and not 4; the 3-cube (12
  // edges, 7 per tree) holds 1 and not 2.
  EXPECT_EQ(exact_tree_packing(topo::hyperx({6})).size(), 3u);
  EXPECT_EQ(exact_tree_packing(topo::hypercube(3)).size(), 1u);
}

}  // namespace
}  // namespace pfar::trees
