#include <gtest/gtest.h>

#include <string>

#include "collectives/logical.hpp"
#include "core/planner.hpp"
#include "model/congestion_model.hpp"
#include "oracle/reference_planning.hpp"
#include "polarfly/erq.hpp"

namespace pfar::collectives {
namespace {

graph::Graph line_graph(int n) {
  graph::Graph g(n);
  for (int i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
  g.finalize();
  return g;
}

TEST(LogicalBandwidthTest, PhysicalEdgesReduceToAlgorithmOne) {
  // A logical tree whose every edge is physical behaves like Algorithm 1:
  // single chain tree on a line gets full bandwidth.
  const auto g = line_graph(4);
  const RoutedNetwork net(g);
  LogicalTree t{0, {-1, 0, 1, 2}};
  const auto bw = logical_tree_bandwidths(net, {t}, 2.0);
  EXPECT_DOUBLE_EQ(bw.per_tree[0], 2.0);
  EXPECT_EQ(bw.max_link_flows, 1);
}

TEST(LogicalBandwidthTest, MultiHopLogicalEdgeSharesLinks) {
  // Logical star at node 0 on a line 0-1-2-3: node 3's logical edge to 0
  // is routed 3->2->1->0, stacking flows on (1,0): flows there = 3
  // (from nodes 1, 2, 3) so each tree stream gets B/3.
  const auto g = line_graph(4);
  const RoutedNetwork net(g);
  LogicalTree star{0, {-1, 0, 0, 0}};
  const auto bw = logical_tree_bandwidths(net, {star}, 1.0);
  EXPECT_DOUBLE_EQ(bw.per_tree[0], 1.0 / 3.0);
  EXPECT_EQ(bw.max_link_flows, 3);
}

TEST(LogicalBandwidthTest, TwoTreesOpposingChainsShareDirections) {
  // Allreduce is bidirectional: chains rooted at opposite ends put one
  // tree's reduction and the other's broadcast on each directed link, so
  // both trees get B/2 — exactly Algorithm 1 on the shared undirected
  // edges (and the Lemma 7.8 situation).
  const auto g = line_graph(3);
  const RoutedNetwork net(g);
  LogicalTree a{0, {-1, 0, 1}};
  LogicalTree b{2, {1, 2, -1}};
  const auto bw = logical_tree_bandwidths(net, {a, b}, 1.0);
  EXPECT_DOUBLE_EQ(bw.per_tree[0], 0.5);
  EXPECT_DOUBLE_EQ(bw.per_tree[1], 0.5);
  EXPECT_EQ(bw.max_link_flows, 2);
}

std::vector<LogicalTree> as_logical(const std::vector<trees::SpanningTree>& ts) {
  std::vector<LogicalTree> logical;
  for (const auto& t : ts) logical.push_back(LogicalTree{t.root(), t.parents()});
  return logical;
}

constexpr core::Solution kSolutions[] = {core::Solution::kLowDepth,
                                         core::Solution::kEdgeDisjoint,
                                         core::Solution::kSingleTree};

void expect_same(const LogicalBandwidths& got, const LogicalBandwidths& ref,
                 const std::string& where) {
  EXPECT_EQ(got.per_tree, ref.per_tree) << where;
  EXPECT_EQ(got.aggregate, ref.aggregate) << where;
  EXPECT_EQ(got.max_link_flows, ref.max_link_flows) << where;
}

TEST(LogicalBandwidthTest, PaperTreesMatchPhysicalAnalysis) {
  // The paper's trees, analyzed as logical trees, must give exactly the
  // Algorithm 1 result, tree by tree, since every logical edge is a
  // physical link; and exactly the first logical solver's result.
  for (int q : {3, 4, 5, 7, 8, 9, 11, 13}) {
    for (const auto solution : kSolutions) {
      const std::string where =
          "q=" + std::to_string(q) + " solution=" + std::to_string(static_cast<int>(solution));
      const auto plan = core::AllreducePlanner(q).solution(solution).build();
      const RoutedNetwork net(plan.topology());
      const auto logical = as_logical(plan.trees());
      const auto bw = logical_tree_bandwidths(net, logical, 1.0);
      const auto alg1 =
          model::compute_tree_bandwidths(plan.topology(), plan.trees(), 1.0);
      EXPECT_EQ(bw.per_tree, alg1.per_tree) << where;
      EXPECT_EQ(bw.aggregate, alg1.aggregate) << where;
      EXPECT_LE(bw.max_link_flows, 2);
      expect_same(bw, oracle::logical_tree_bandwidths_reference(net, logical, 1.0), where);
    }
  }
}

TEST(LogicalOracle, RandomTreeSetsMatchReference) {
  // 30 seeded sets per q: counts and arities drawn from 1..q+1.
  int sets = 0;
  for (int q : {3, 4, 5, 7, 8, 9, 11}) {
    const polarfly::PolarFly pf(q);
    const RoutedNetwork net(pf.graph());
    for (int s = 0; s < 30; ++s) {
      util::Rng rng(static_cast<std::uint64_t>(1000 * q + s));
      const int count = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(q + 1)));
      const int arity = 1 + static_cast<int>(rng.next_below(static_cast<std::uint64_t>(q + 1)));
      const auto logical =
          random_logical_trees(pf.graph().num_vertices(), count, arity, rng);
      const double b = s % 3 == 0 ? 2.5 : 1.0;
      expect_same(logical_tree_bandwidths(net, logical, b),
                  oracle::logical_tree_bandwidths_reference(net, logical, b),
                  "q=" + std::to_string(q) + " set=" + std::to_string(s));
      ++sets;
    }
  }
  EXPECT_EQ(sets, 210);
}

// Both entry points reject a malformed tree on a 4-node line, naming the
// rule it breaks.
void expect_rejected(const LogicalTree& t, const std::string& rule) {
  const auto g = line_graph(4);
  const RoutedNetwork net(g);
  const auto expect_throw = [&](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "accepted a tree breaking: " << rule;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(rule), std::string::npos) << e.what();
    }
  };
  expect_throw([&] {
    logical_tree_bandwidths(net, {LogicalTree{0, {-1, 0, 1, 2}}, t}, 1.0);
  });
  expect_throw([&] { logical_depth(net, t); });
}

TEST(LogicalTreeValidation, RejectsRootOutsideRange) {
  expect_rejected(LogicalTree{4, {-1, 0, 1, 2}}, "bad root");
  expect_rejected(LogicalTree{-1, {-1, 0, 1, 2}}, "bad root");
}

TEST(LogicalTreeValidation, RejectsRootWithParent) {
  expect_rejected(LogicalTree{0, {1, -1, 1, 2}}, "bad root");
}

TEST(LogicalTreeValidation, RejectsSecondParentlessVertex) {
  // Used to reach RoutedNetwork::path(v, -1) and abort.
  expect_rejected(LogicalTree{0, {-1, 0, -1, 2}}, "without parent");
}

TEST(LogicalTreeValidation, RejectsParentOutsideRange) {
  expect_rejected(LogicalTree{0, {-1, 0, 4, 2}}, "without parent");
  expect_rejected(LogicalTree{0, {-1, 0, -2, 2}}, "without parent");
}

TEST(LogicalTreeValidation, RejectsSelfParent) {
  expect_rejected(LogicalTree{0, {-1, 0, 2, 2}}, "cycle");
}

TEST(LogicalTreeValidation, RejectsParentCycle) {
  // Root 0 with 1 <-> 2: used to get a bandwidth, and depth 0.
  expect_rejected(LogicalTree{0, {-1, 2, 1, 0}}, "cycle");
  expect_rejected(LogicalTree{0, {-1, 3, 1, 2}}, "cycle");  // 1 -> 3 -> 2 -> 1
}

TEST(LogicalTreeValidation, RejectsWrongSize) {
  expect_rejected(LogicalTree{0, {-1, 0, 1}}, "tree size");
}

TEST(LogicalBandwidthTest, RandomLogicalTreesLoseBandwidth) {
  const int q = 7;
  const auto plan = core::AllreducePlanner(q).build();
  const RoutedNetwork net(plan.topology());
  util::Rng rng(5);
  const auto logical =
      random_logical_trees(plan.num_nodes(), q, q + 1, rng);
  const auto bw = logical_tree_bandwidths(net, logical, 1.0);
  // Oblivious routing stacks many flows on some link; must be well below
  // the physical construction's q/2.
  EXPECT_LT(bw.aggregate, plan.aggregate_bandwidth());
  EXPECT_GT(bw.max_link_flows, 2);
}

TEST(RandomLogicalTreesTest, WellFormed) {
  util::Rng rng(9);
  const auto trees = random_logical_trees(20, 4, 3, rng);
  ASSERT_EQ(trees.size(), 4u);
  for (const auto& t : trees) {
    int roots = 0;
    std::vector<int> children(20, 0);
    for (int v = 0; v < 20; ++v) {
      if (t.parent[static_cast<std::size_t>(v)] == -1) {
        ++roots;
        EXPECT_EQ(v, t.root);
      } else {
        EXPECT_GE(t.parent[static_cast<std::size_t>(v)], 0);
        EXPECT_LT(t.parent[static_cast<std::size_t>(v)], 20);
        ++children[static_cast<std::size_t>(t.parent[static_cast<std::size_t>(v)])];
      }
    }
    EXPECT_EQ(roots, 1);
    for (int v = 0; v < 20; ++v) EXPECT_LE(children[static_cast<std::size_t>(v)], 3);  // arity bound
  }
  EXPECT_THROW(random_logical_trees(0, 1, 1, rng), std::invalid_argument);
}

TEST(LogicalDepthTest, HopWeightedDepth) {
  // Line 0-1-2-3, logical chain 0<-1<-3 (skipping 2): edge (3,1) routes
  // over 2 hops, total depth 3.
  const auto g = line_graph(4);
  const RoutedNetwork net(g);
  LogicalTree t{0, {-1, 0, 1, 1}};
  EXPECT_EQ(logical_depth(net, t), 3);
  // Physical chain: depth = 3 hops as well.
  LogicalTree chain{0, {-1, 0, 1, 2}};
  EXPECT_EQ(logical_depth(net, chain), 3);
}

}  // namespace
}  // namespace pfar::collectives
