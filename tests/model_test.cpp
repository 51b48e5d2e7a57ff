#include <gtest/gtest.h>

#include <numeric>

#include "model/congestion_model.hpp"
#include "polarfly/layout.hpp"
#include "singer/singer_graph.hpp"
#include "trees/hamiltonian.hpp"
#include "trees/low_depth.hpp"
#include "util/contracts.hpp"

namespace pfar::model {
namespace {

using trees::SpanningTree;

TEST(CongestionModelTest, SingleTreeGetsFullLink) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  const SpanningTree t(0, {-1, 0, 1});
  const auto bw = compute_tree_bandwidths(g, {t}, 4.0);
  EXPECT_DOUBLE_EQ(bw.per_tree[0], 4.0);
  EXPECT_DOUBLE_EQ(bw.aggregate, 4.0);
}

TEST(CongestionModelTest, TwoTreesSharingEveryEdgeSplitEvenly) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  const SpanningTree a(0, {-1, 0, 1});
  const SpanningTree b(2, {1, 2, -1});  // same undirected edges
  const auto bw = compute_tree_bandwidths(g, {a, b}, 1.0);
  EXPECT_DOUBLE_EQ(bw.per_tree[0], 0.5);
  EXPECT_DOUBLE_EQ(bw.per_tree[1], 0.5);
  EXPECT_DOUBLE_EQ(bw.aggregate, 1.0);
}

TEST(CongestionModelTest, DisjointTreesGetFullBandwidthEach) {
  // K4 has two edge-disjoint spanning trees.
  graph::Graph g(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) g.add_edge(i, j);
  }
  g.finalize();
  const SpanningTree a(0, {-1, 0, 1, 2});       // chain 0-1-2-3
  const SpanningTree b(0, {-1, 3, 0, 0});       // 0-2, 0-3, 1-3
  const std::vector<SpanningTree> ts{a, b};
  ASSERT_TRUE(trees::edge_disjoint(g, ts));
  const auto bw = compute_tree_bandwidths(g, ts, 2.5);
  EXPECT_DOUBLE_EQ(bw.per_tree[0], 2.5);
  EXPECT_DOUBLE_EQ(bw.per_tree[1], 2.5);
  EXPECT_DOUBLE_EQ(bw.aggregate, 5.0);
}

TEST(CongestionModelTest, AsymmetricCongestion) {
  // Path 0-1-2-3 plus chord 0-3 and 1-3: tree A uses {01,12,23}, tree B
  // uses {01,13,03}: only edge 01 is shared.
  graph::Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.add_edge(2, 3);
  g.add_edge(0, 3);
  g.add_edge(1, 3);
  g.finalize();
  const SpanningTree a(0, {-1, 0, 1, 2});
  const SpanningTree b(0, {-1, 0, 3, 1});  // parents: 1<-0, 2<-3, 3<-1
  const auto bw = compute_tree_bandwidths(g, {a, b}, 1.0);
  // Edge 01 congestion 2 is the single bottleneck: both trees get 1/2.
  EXPECT_DOUBLE_EQ(bw.per_tree[0], 0.5);
  EXPECT_DOUBLE_EQ(bw.per_tree[1], 0.5);
}

TEST(CongestionModelTest, LateTreesGetResidualBandwidth) {
  // Trees A and B share edge (0,1); once A and B are fixed at 1/2 each,
  // tree C (which avoids (0,1)) is limited by the residual 1/2 left on the
  // links it shares with A. Checks the iterative residual logic of
  // Algorithm 1.
  graph::Graph g(4);
  g.add_edge(0, 1);  // A, B
  g.add_edge(1, 2);  // A, C
  g.add_edge(2, 3);  // A, C
  g.add_edge(0, 2);  // B, C
  g.add_edge(1, 3);  // B
  g.add_edge(0, 3);  // unused
  g.finalize();
  const SpanningTree a(0, {-1, 0, 1, 2});       // 01, 12, 23
  const SpanningTree b(0, {-1, 0, 0, 1});       // 01, 02, 13
  const SpanningTree c(1, {2, -1, 1, 2});       // 02, 12, 23
  const auto bw = compute_tree_bandwidths(g, {a, b, c}, 1.0);
  EXPECT_DOUBLE_EQ(bw.per_tree[0], 0.5);
  EXPECT_DOUBLE_EQ(bw.per_tree[1], 0.5);
  EXPECT_DOUBLE_EQ(bw.per_tree[2], 0.5);
  EXPECT_DOUBLE_EQ(bw.aggregate, 1.5);
}

TEST(CongestionModelTest, ConservationPerLink) {
  // Sum over trees of B_i on each link never exceeds link bandwidth.
  const polarfly::PolarFly pf(7);
  const auto ts = trees::build_low_depth_trees(pf, polarfly::build_layout(pf));
  const double B = 3.0;
  const auto bw = compute_tree_bandwidths(pf.graph(), ts, B);
  std::vector<double> load(static_cast<std::size_t>(pf.graph().num_edges()), 0.0);
  for (std::size_t t = 0; t < ts.size(); ++t) {
    for (const auto& e : ts[t].edges()) {
      load[static_cast<std::size_t>(pf.graph().edge_id(e.u, e.v))] += bw.per_tree[t];
    }
  }
  for (double l : load) EXPECT_LE(l, B + 1e-9);
}

TEST(CongestionModelTest, LowDepthTreesMeetCorollarySevenSeven) {
  // Corollary 7.7: aggregate >= q B / 2 for the low-depth set.
  for (int q : {3, 5, 7, 9, 11, 13}) {
    const polarfly::PolarFly pf(q);
    const auto ts =
        trees::build_low_depth_trees(pf, polarfly::build_layout(pf));
    const auto bw = compute_tree_bandwidths(pf.graph(), ts, 1.0);
    EXPECT_GE(bw.aggregate, q / 2.0 - 1e-9) << "q=" << q;
    EXPECT_LE(bw.aggregate, optimal_polarfly_bandwidth(q, 1.0) + 1e-9);
  }
}

TEST(CongestionModelTest, HamiltonianTreesAreOptimalForOddQ) {
  // Theorem 7.19: aggregate == floor((q+1)/2) B; optimal for odd q.
  for (int q : {3, 5, 7, 9, 11}) {
    const singer::SingerGraph s(q);
    const auto set = singer::find_disjoint_hamiltonians(s.difference_set());
    const auto ts = trees::hamiltonian_trees(set);
    const auto bw = compute_tree_bandwidths(s.graph(), ts, 1.0);
    EXPECT_DOUBLE_EQ(bw.aggregate, (q + 1) / 2.0) << "q=" << q;
    EXPECT_DOUBLE_EQ(bw.aggregate, optimal_polarfly_bandwidth(q, 1.0));
  }
}

TEST(CongestionModelTest, RejectsForeignTreeEdges) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  graph::Graph other(3);
  other.add_edge(0, 1);
  other.add_edge(0, 2);
  other.finalize();
  const SpanningTree t(0, {-1, 0, 0});  // uses edge (0,2), absent from g
  EXPECT_THROW(compute_tree_bandwidths(g, {t}, 1.0), std::invalid_argument);
}

// A tree whose vertex count is not the graph's is rejected, whether it is
// smaller (its edges all exist in g) or larger; so is a tree set mixing
// sizes. None falls back to the reference.
TEST(CongestionModelTest, RejectsTreesOfAnotherVertexCount) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.finalize();
  const SpanningTree fits(0, {-1, 0, 1});
  const SpanningTree smaller(0, {-1, 0});
  const SpanningTree larger(0, {-1, 0, 1, 2});
  EXPECT_THROW(compute_tree_bandwidths(g, {smaller}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(compute_tree_bandwidths(g, {larger}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(compute_tree_bandwidths(g, {fits, smaller}, 1.0),
               std::invalid_argument);
  EXPECT_NO_THROW(compute_tree_bandwidths(g, {fits}, 1.0));
}

// Rows in CSR form from one resource list per flow.
FlowRows flow_rows(const std::vector<std::vector<int>>& per_flow,
                   const std::vector<std::vector<int>>& mult = {}) {
  FlowRows rows;
  for (std::size_t t = 0; t < per_flow.size(); ++t) {
    rows.resources.insert(rows.resources.end(), per_flow[t].begin(), per_flow[t].end());
    if (!mult.empty()) {
      rows.multiplicity.insert(rows.multiplicity.end(), mult[t].begin(), mult[t].end());
    }
    rows.offsets.push_back(static_cast<int>(rows.resources.size()));
  }
  return rows;
}

TEST(MaxMinKernel, MultiplicityThreeOnOneResourceGetsAThird) {
  const auto bw = max_min_fair_shares(1, flow_rows({{0}}, {{3}}), 1.0);
  EXPECT_EQ(bw.per_tree, std::vector<double>{1.0 / 3.0});
  // The same flow crossing the resource once gets all of it.
  EXPECT_EQ(max_min_fair_shares(1, flow_rows({{0}}), 1.0).per_tree,
            std::vector<double>{1.0});
}

TEST(MaxMinKernel, HonoursPerResourceCapacities) {
  // Flow 0 crosses resources 0 (budget 4 * 1) and 1 (budget 4 * 0.25);
  // flow 1 crosses only resource 0. Resource 1 fixes flow 0 at 1; flow 1
  // takes the 3 left on resource 0.
  const auto bw = max_min_fair_shares(2, flow_rows({{0, 1}, {0}}), 4.0, {1.0, 0.25});
  EXPECT_EQ(bw.per_tree, (std::vector<double>{1.0, 3.0}));
  EXPECT_EQ(bw.aggregate, 4.0);
}

TEST(MaxMinKernel, TieGoesToLowestResourceId) {
  // Resources a (flows A, B; budget 2/3) and b (flows B, C, D; budget 1)
  // tie at ratio 1/3. Fixing a first leaves b the residual 1 - 1/3 for
  // two flows, which rounds above 1/3; fixing b first gives every flow
  // exactly 1/3. Lowest id first decides which happens.
  const double third = 1.0 / 3.0;
  const double residual = (1.0 - third) / 2;
  ASSERT_NE(residual, third);
  const auto a_first = max_min_fair_shares(
      2, flow_rows({{0}, {0, 1}, {1}, {1}}), 1.0, {2 * third, 1.0});
  EXPECT_EQ(a_first.per_tree,
            (std::vector<double>{third, third, residual, residual}));
  const auto b_first = max_min_fair_shares(
      2, flow_rows({{1}, {1, 0}, {0}, {0}}), 1.0, {1.0, 2 * third});
  EXPECT_EQ(b_first.per_tree, (std::vector<double>{third, third, third, third}));
}

TEST(MaxMinKernel, UnusedResourceIsIgnored) {
  // Resource 0 carries no flow and the smallest budget.
  const auto bw = max_min_fair_shares(2, flow_rows({{1}, {1}}), 2.0, {0.05, 1.0});
  EXPECT_EQ(bw.per_tree, (std::vector<double>{1.0, 1.0}));
}

TEST(MaxMinKernel, ZeroFlows) {
  const auto bw = max_min_fair_shares(2, FlowRows{}, 1.0);
  EXPECT_TRUE(bw.per_tree.empty());
  EXPECT_EQ(bw.aggregate, 0.0);
  EXPECT_TRUE(max_min_fair_shares(0, FlowRows{}, 1.0).per_tree.empty());
}

TEST(MaxMinKernel, RejectsMalformedRows) {
  util::contracts::ScopedThrowHandler guard;
  using util::contracts::ContractViolation;
  EXPECT_THROW(max_min_fair_shares(2, flow_rows({{2}}), 1.0), ContractViolation);
  EXPECT_THROW(max_min_fair_shares(1, flow_rows({{0}}, {{0}}), 1.0), ContractViolation);
  FlowRows short_mult = flow_rows({{0, 1}});
  short_mult.multiplicity = {1};
  EXPECT_THROW(max_min_fair_shares(2, short_mult, 1.0), ContractViolation);
  EXPECT_THROW(max_min_fair_shares(2, flow_rows({{0}}), 1.0, {1.0}), ContractViolation);
  FlowRows bad_offsets = flow_rows({{0}, {0}});
  bad_offsets.offsets = {0, 2, 1};
  EXPECT_THROW(max_min_fair_shares(1, bad_offsets, 1.0), ContractViolation);
  // A flow that crosses no resource never meets a bottleneck.
  EXPECT_THROW(max_min_fair_shares(1, flow_rows({{0}, {}}), 1.0), std::logic_error);
}

TEST(OptimalSplitTest, ProportionalAndExact) {
  TreeBandwidths bw;
  bw.per_tree = {1.0, 1.0, 2.0};
  bw.aggregate = 4.0;
  const auto split = optimal_split(100, bw);
  EXPECT_EQ(split[0], 25);
  EXPECT_EQ(split[1], 25);
  EXPECT_EQ(split[2], 50);
  EXPECT_EQ(std::accumulate(split.begin(), split.end(), 0LL), 100);
}

TEST(OptimalSplitTest, EqualizesTreeTimes) {
  // Theorem 5.1: with m_i = m B_i / sum(B), all trees take (almost) equal
  // time m_i / B_i.
  TreeBandwidths bw;
  bw.per_tree = {0.5, 1.0, 1.5};
  bw.aggregate = 3.0;
  const long long m = 300000;
  const auto split = optimal_split(m, bw);
  const double t0 = static_cast<double>(split[0]) / bw.per_tree[0];
  for (std::size_t i = 1; i < split.size(); ++i) {
    const double ti = static_cast<double>(split[i]) / bw.per_tree[i];
    EXPECT_NEAR(ti, t0, 2.0 / bw.per_tree[i] + 2.0 / bw.per_tree[0]);
  }
}

TEST(RateUpperBoundTest, PathAndCliqueAndPolarFly) {
  // Path 0-1-2: deg_min = 1 and E/(N-1) = 1, so the bound is B.
  graph::Graph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  path.finalize();
  EXPECT_DOUBLE_EQ(allreduce_rate_upper_bound(path, 2.0), 2.0);

  // K4: deg_min = 3, E/(N-1) = 6/3 = 2 — the spanning term binds.
  graph::Graph k4(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) k4.add_edge(i, j);
  }
  k4.finalize();
  EXPECT_DOUBLE_EQ(allreduce_rate_upper_bound(k4, 1.0), 2.0);

  // PolarFly q=7: the bound must dominate Algorithm 1's aggregate for
  // both constructions (q/2 and (q+1)/2), and the spanning term
  // (q+1)/2 * N/(N-1) is what binds.
  const singer::SingerGraph sg(7);
  const auto& g = sg.graph();
  const double bound = allreduce_rate_upper_bound(g, 1.0);
  EXPECT_GE(bound, (7 + 1) / 2.0);
  EXPECT_DOUBLE_EQ(
      bound, static_cast<double>(g.num_edges()) / (g.num_vertices() - 1));
}

TEST(RateUpperBoundTest, InputValidation) {
  graph::Graph tiny(1);
  tiny.finalize();
  EXPECT_THROW(allreduce_rate_upper_bound(tiny, 1.0), std::invalid_argument);

  graph::Graph isolated(3);
  isolated.add_edge(0, 1);
  isolated.finalize();  // vertex 2 has no edge
  EXPECT_THROW(allreduce_rate_upper_bound(isolated, 1.0),
               std::invalid_argument);

  graph::Graph ok(2);
  ok.add_edge(0, 1);
  ok.finalize();
  EXPECT_THROW(allreduce_rate_upper_bound(ok, 0.0), std::invalid_argument);
}

}  // namespace
}  // namespace pfar::model
