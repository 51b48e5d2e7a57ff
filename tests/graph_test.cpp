#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "oracle/reference_math.hpp"
#include "util/rng.hpp"

namespace pfar::graph {
namespace {

Graph path_graph(int n) {
  Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();
  return g;
}

Graph cycle_graph(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) g.add_edge(i, (i + 1) % n);
  g.finalize();
  return g;
}

Graph complete_graph(int n) {
  Graph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) g.add_edge(i, j);
  }
  g.finalize();
  return g;
}

TEST(GraphTest, BasicAccessors) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(2, 1);
  g.finalize();
  EXPECT_EQ(g.num_vertices(), 4);
  EXPECT_EQ(g.num_edges(), 2);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(1, 2));
  EXPECT_FALSE(g.has_edge(0, 2));
  EXPECT_FALSE(g.has_edge(3, 0));
  EXPECT_EQ(g.degree(1), 2);
  EXPECT_EQ(g.degree(3), 0);
}

// Out-of-range endpoints are simply not edges, even where a row-major
// adjacency layout would alias them to a neighboring row's entries.
TEST(GraphTest, HasEdgeRejectsOutOfRangeVertices) {
  const Graph g = cycle_graph(64);
  const int n = g.num_vertices();
  EXPECT_TRUE(g.has_edge(0, n - 1));
  EXPECT_FALSE(g.has_edge(0, n));
  EXPECT_FALSE(g.has_edge(n, 0));
  EXPECT_FALSE(g.has_edge(-1, 0));
  EXPECT_FALSE(g.has_edge(0, -1));
  EXPECT_EQ(g.edge_id(0, n), -1);
  EXPECT_EQ(g.edge_id(n, 0), -1);
}

TEST(GraphTest, RejectsSelfLoopAndBadVertices) {
  Graph g(3);
  EXPECT_THROW(g.add_edge(1, 1), std::invalid_argument);
  EXPECT_THROW(g.add_edge(0, 3), std::out_of_range);
  EXPECT_THROW(g.add_edge(-1, 0), std::out_of_range);
}

TEST(GraphTest, RejectsDuplicateEdges) {
  Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 0);
  EXPECT_THROW(g.finalize(), std::logic_error);
}

TEST(GraphTest, EdgeIdsAreDenseAndStable) {
  Graph g = complete_graph(5);
  std::vector<char> seen(static_cast<std::size_t>(g.num_edges()), 0);
  for (const auto& e : g.edges()) {
    const int id = g.edge_id(e.u, e.v);
    ASSERT_GE(id, 0);
    ASSERT_LT(id, g.num_edges());
    EXPECT_FALSE(seen[static_cast<std::size_t>(id)]);
    seen[static_cast<std::size_t>(id)] = 1;
    EXPECT_EQ(g.edge(id), e);
    EXPECT_EQ(g.edge_id(e.v, e.u), id);  // symmetric lookup
  }
  EXPECT_EQ(g.edge_id(0, 0), -1);
}

TEST(GraphTest, BfsDistancesOnPath) {
  Graph g = path_graph(5);
  const auto dist = g.bfs_distances(0);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(dist[static_cast<std::size_t>(i)], i);
  }
}

TEST(GraphTest, BfsTreeTakesTheFirstDiscovery) {
  // On the 6-cycle rooted at 0, vertex 3 is two hops away through both 2
  // and 4; the FIFO queue reaches 2 (via 1) before 4 (via 5), so 2 wins.
  const Graph g = cycle_graph(6);
  BfsTree tree;
  g.bfs_tree(0, tree);
  EXPECT_EQ(tree.parent, (std::vector<int>{-1, 0, 1, 2, 5, 0}));
  EXPECT_EQ(tree.dist, (std::vector<int>{0, 1, 2, 3, 2, 1}));
  EXPECT_EQ(tree.order, (std::vector<int>{0, 1, 5, 2, 4, 3}));
  // The storage is reused: a second root overwrites every entry.
  g.bfs_tree(3, tree);
  EXPECT_EQ(tree.parent, (std::vector<int>{1, 2, 3, -1, 3, 4}));
  EXPECT_EQ(tree.order, (std::vector<int>{3, 2, 4, 1, 5, 0}));
}

TEST(GraphTest, DisconnectedGraph) {
  Graph g(4);
  g.add_edge(0, 1);
  g.finalize();
  EXPECT_FALSE(g.is_connected());
  EXPECT_EQ(g.diameter(), -1);
  EXPECT_EQ(g.bfs_distances(0)[3], -1);
}

TEST(GraphTest, Diameter) {
  EXPECT_EQ(path_graph(6).diameter(), 5);
  EXPECT_EQ(cycle_graph(6).diameter(), 3);
  EXPECT_EQ(complete_graph(7).diameter(), 1);
}

TEST(GraphTest, CommonNeighborCount) {
  Graph g = complete_graph(5);
  EXPECT_EQ(oracle::common_neighbor_count(g, 0, 1), 3);
  Graph p = path_graph(4);
  EXPECT_EQ(oracle::common_neighbor_count(p, 0, 2), 1);
  EXPECT_EQ(oracle::common_neighbor_count(p, 0, 3), 0);
}

int matching_size(const std::vector<int>& mate) {
  int c = 0;
  for (std::size_t v = 0; v < mate.size(); ++v) {
    if (mate[v] >= 0) {
      EXPECT_EQ(mate[static_cast<std::size_t>(mate[v])], static_cast<int>(v));  // symmetric
      ++c;
    }
  }
  return c / 2;
}

TEST(MatchingTest, PathGraphs) {
  EXPECT_EQ(matching_size(maximum_matching(path_graph(2))), 1);
  EXPECT_EQ(matching_size(maximum_matching(path_graph(5))), 2);
  EXPECT_EQ(matching_size(maximum_matching(path_graph(6))), 3);
}

TEST(MatchingTest, OddCycleNeedsBlossom) {
  // C5: maximum matching 2; greedy/bipartite reasoning fails on odd cycles.
  EXPECT_EQ(matching_size(maximum_matching(cycle_graph(5))), 2);
  EXPECT_EQ(matching_size(maximum_matching(cycle_graph(9))), 4);
}

TEST(MatchingTest, CompleteGraphs) {
  EXPECT_EQ(matching_size(maximum_matching(complete_graph(6))), 3);
  EXPECT_EQ(matching_size(maximum_matching(complete_graph(7))), 3);
}

TEST(MatchingTest, PetersenGraph) {
  // The Petersen graph has a perfect matching (size 5) and plenty of odd
  // cycles, a classic blossom stress case.
  Graph g(10);
  for (int i = 0; i < 5; ++i) {
    g.add_edge(i, (i + 1) % 5);          // outer C5
    g.add_edge(5 + i, 5 + (i + 2) % 5);  // inner pentagram
    g.add_edge(i, 5 + i);                // spokes
  }
  g.finalize();
  EXPECT_EQ(matching_size(maximum_matching(g)), 5);
}

TEST(MatchingTest, MatchedEdgesExist) {
  Graph g = cycle_graph(7);
  const auto mate = maximum_matching(g);
  for (int v = 0; v < 7; ++v) {
    if (mate[static_cast<std::size_t>(v)] >= 0) {
      EXPECT_TRUE(g.has_edge(v, mate[static_cast<std::size_t>(v)]));
    }
  }
}

TEST(MisTest, IndependentAndMaximal) {
  Graph g = cycle_graph(9);
  util::Rng rng(5);
  for (int iter = 0; iter < 20; ++iter) {
    const auto set = random_maximal_independent_set(g, rng);
    // Independence.
    for (std::size_t i = 0; i < set.size(); ++i) {
      for (std::size_t j = i + 1; j < set.size(); ++j) {
        EXPECT_FALSE(g.has_edge(set[i], set[j]));
      }
    }
    // Maximality: every vertex is in the set or adjacent to it.
    std::vector<char> covered(static_cast<std::size_t>(g.num_vertices()), 0);
    for (int v : set) {
      covered[static_cast<std::size_t>(v)] = 1;
      for (int w : g.neighbors(v)) covered[static_cast<std::size_t>(w)] = 1;
    }
    EXPECT_TRUE(std::all_of(covered.begin(), covered.end(),
                            [](char c) { return c == 1; }));
  }
}

TEST(MisTest, BestOfAttemptsFindsMaximumOnC9) {
  // C9's maximum independent set is 4; a single greedy pass can get 3, but
  // 30 attempts reliably find 4 (the paper's Section 7.3 methodology).
  Graph g = cycle_graph(9);
  util::Rng rng(11);
  EXPECT_EQ(best_random_independent_set(g, rng, 30).size(), 4u);
}

}  // namespace
}  // namespace pfar::graph
