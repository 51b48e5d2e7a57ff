#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <utility>

#include "core/planner.hpp"
#include "model/congestion_model.hpp"
#include "oracle/reference_planning.hpp"
#include "polarfly/layout.hpp"
#include "singer/singer_graph.hpp"
#include "trees/hamiltonian.hpp"
#include "trees/low_depth.hpp"
#include "util/content_stamp.hpp"
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

TEST(ContentStamp, CopyKeepsTheValueAndMoveZeroesTheSource) {
  util::ContentStamp a;
  EXPECT_EQ(a.value(), 0u);
  a.renew();
  const std::uint64_t v = a.value();
  EXPECT_NE(v, 0u);
  const util::ContentStamp copy = a;
  EXPECT_EQ(copy.value(), v);
  util::ContentStamp moved = std::move(a);
  EXPECT_EQ(moved.value(), v);
  EXPECT_EQ(a.value(), 0u);  // NOLINT(bugprone-use-after-move)
  util::ContentStamp assigned;
  assigned = std::move(moved);
  EXPECT_EQ(assigned.value(), v);
  EXPECT_EQ(moved.value(), 0u);  // NOLINT(bugprone-use-after-move)
  assigned.renew();
  EXPECT_NE(assigned.value(), v);
  EXPECT_NE(assigned.value(), 0u);
}

TEST(ContentStamp, GraphIsStampedAtFinalize) {
  graph::Graph g(3);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  EXPECT_EQ(g.stamp(), 0u);
  g.finalize();
  EXPECT_NE(g.stamp(), 0u);
  const graph::Graph copy = g;
  EXPECT_EQ(copy.stamp(), g.stamp());
  graph::Graph same_edges(3);
  same_edges.add_edge(0, 1);
  same_edges.add_edge(1, 2);
  same_edges.finalize();
  EXPECT_NE(same_edges.stamp(), g.stamp());  // rebuilt: a fresh stamp
}

TEST(ContentStamp, TreeStampsTravelWithTheirContent) {
  SpanningTree a(0, {-1, 0, 1});
  SpanningTree b(2, {1, 2, -1});
  const std::uint64_t sa = a.stamp();
  const std::uint64_t sb = b.stamp();
  EXPECT_NE(sa, 0u);
  EXPECT_NE(sb, 0u);
  EXPECT_NE(sa, sb);
  std::swap(a, b);
  EXPECT_EQ(a.stamp(), sb);
  EXPECT_EQ(a.root(), 2);
  EXPECT_EQ(b.stamp(), sa);
  EXPECT_EQ(b.root(), 0);
  const SpanningTree copy = a;
  EXPECT_EQ(copy.stamp(), sb);
  const SpanningTree taken = std::move(a);
  EXPECT_EQ(taken.stamp(), sb);
  EXPECT_EQ(a.stamp(), 0u);  // NOLINT(bugprone-use-after-move)
}

// Algorithm 1 straight through the kernel, past every memo.
TreeBandwidths fresh_solve(const graph::Graph& g,
                           const std::vector<SpanningTree>& ts, double b,
                           const std::vector<double>& scale = {}) {
  FlowRows rows;
  rows.resources = trees::tree_links(g, ts);
  std::erase(rows.resources, -1);
  for (std::size_t t = 1; t <= ts.size(); ++t) {
    rows.offsets.push_back(static_cast<int>(t) * (g.num_vertices() - 1));
  }
  return max_min_fair_shares(g.num_edges(), rows, b, scale);
}

void expect_same(const TreeBandwidths& got, const TreeBandwidths& want,
                 const std::string& where) {
  EXPECT_EQ(got.per_tree, want.per_tree) << where;
  EXPECT_EQ(got.aggregate, want.aggregate) << where;
}

// compute_tree_bandwidths, a fresh kernel solve and the seed scan agree
// bit for bit on (g, ts, b, scale).
void expect_exact(const graph::Graph& g, const std::vector<SpanningTree>& ts,
                  double b, const std::vector<double>& scale,
                  const std::string& where) {
  const auto fresh = fresh_solve(g, ts, b, scale);
  expect_same(compute_tree_bandwidths(g, ts, b, scale), fresh, where);
  expect_same(oracle::compute_tree_bandwidths_reference(g, ts, b, scale),
              fresh, where);
}

constexpr core::Solution kSolutions[] = {core::Solution::kLowDepth,
                                         core::Solution::kEdgeDisjoint,
                                         core::Solution::kSingleTree};

TEST(BandwidthMemo, HitsAndMissesEqualAFreshSolve) {
  for (int q : {7, 11, 13}) {
    for (const auto solution : kSolutions) {
      const std::string where = "q=" + std::to_string(q) + " " +
                                core::to_string(solution);
      const auto plan = core::AllreducePlanner(q).solution(solution).build();
      const graph::Graph& g = plan.topology();
      const std::vector<SpanningTree>& ts = plan.trees();
      const auto fresh = fresh_solve(g, ts, 1.0);
      // The planner's solve was the last uniform one: the run's is a hit.
      expect_same(compute_tree_bandwidths(g, ts, 1.0), fresh, where);
      expect_same(compute_tree_bandwidths(g, ts, 1.0), fresh, where);
      expect_same(oracle::compute_tree_bandwidths_reference(g, ts, 1.0),
                  fresh, where);

      BandwidthMemo memo;
      EXPECT_FALSE(memo.find(g, ts, 1.0)) << where;
      memo.store(g, ts, 1.0, fresh);
      const auto hit = memo.find(g, ts, 1.0);
      ASSERT_TRUE(hit) << where;
      expect_same(*hit, fresh, where + " hit");
      // A copied set and a vector moved as a whole keep their stamps.
      std::vector<SpanningTree> copied = ts;
      ASSERT_TRUE(memo.find(g, copied, 1.0)) << where;
      const std::vector<SpanningTree> moved_whole = std::move(copied);
      ASSERT_TRUE(memo.find(g, moved_whole, 1.0)) << where;

      // Same content rebuilt: new stamps, so a miss.
      std::vector<SpanningTree> rebuilt;
      for (const auto& t : ts) rebuilt.emplace_back(t.root(), t.parents());
      EXPECT_FALSE(memo.find(g, rebuilt, 1.0)) << where;
      expect_exact(g, rebuilt, 1.0, {}, where + " rebuilt trees");
      graph::Graph g2(g.num_vertices());
      for (const auto& e : g.edges()) g2.add_edge(e.u, e.v);
      g2.finalize();
      EXPECT_FALSE(memo.find(g2, ts, 1.0)) << where;
      expect_exact(g2, ts, 1.0, {}, where + " rebuilt graph");

      // The key is ordered: a reversed set misses and is solved in its
      // own order.
      const std::vector<SpanningTree> reversed(ts.rbegin(), ts.rend());
      if (ts.size() > 1) {
        EXPECT_FALSE(memo.find(g, reversed, 1.0)) << where;
      }
      expect_exact(g, reversed, 1.0, {}, where + " reversed");
      auto back = compute_tree_bandwidths(g, reversed, 1.0).per_tree;
      std::reverse(back.begin(), back.end());
      for (std::size_t t = 0; t < ts.size(); ++t) {
        EXPECT_NEAR(back[t], fresh.per_tree[t], 1e-12) << where;
      }

      // Another B misses.
      EXPECT_FALSE(memo.find(g, ts, 2.5)) << where;
      expect_exact(g, ts, 2.5, {}, where + " B=2.5");

      // A scaled call neither reads nor writes the memo: its answer is
      // the scaled one, and the uniform answer after it is still uniform.
      std::vector<double> scale(static_cast<std::size_t>(g.num_edges()), 1.0);
      for (std::size_t e = 0; e < scale.size(); e += 3) scale[e] = 0.5;
      expect_same(compute_tree_bandwidths(g, ts, 1.0), fresh, where);
      expect_exact(g, ts, 1.0, scale, where + " scaled");
      expect_same(compute_tree_bandwidths(g, ts, 1.0), fresh,
                  where + " uniform after scaled");

      // A moved-from tree has stamp 0: the key is never looked up or
      // stored, and the solve rejects the empty tree as a fresh one does.
      // (The seed scan is not run on it: its content is gone.)
      std::vector<SpanningTree> holey = ts;
      SpanningTree taken = std::move(holey.front());
      EXPECT_FALSE(memo.find(g, holey, 1.0)) << where;
      memo.store(g, holey, 2.0, TreeBandwidths{});
      ASSERT_TRUE(memo.find(g, ts, 1.0)) << where;  // entry kept
      EXPECT_THROW(compute_tree_bandwidths(g, holey, 1.0),
                   std::invalid_argument);
      EXPECT_THROW(fresh_solve(g, holey, 1.0), std::invalid_argument);
      // Moved back, the tree brings its stamp and content home.
      holey.front() = std::move(taken);
      ASSERT_TRUE(memo.find(g, holey, 1.0)) << where;
      expect_exact(g, holey, 1.0, {}, where + " moved back");
    }
  }
}

TEST(BandwidthMemo, ReversedSetComesBackReversed) {
  // On K4, two copies of chain 0-1-2-3 share every link (1/2 each) and a
  // third tree has its own links (1), so an answer in the wrong order
  // would show.
  graph::Graph g(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) g.add_edge(i, j);
  }
  g.finalize();
  const std::vector<SpanningTree> ts{SpanningTree(0, {-1, 0, 1, 2}),
                                     SpanningTree(0, {-1, 0, 1, 2}),
                                     SpanningTree(0, {-1, 3, 0, 0})};
  const auto fwd = compute_tree_bandwidths(g, ts, 1.0);
  EXPECT_EQ(fwd.per_tree, (std::vector<double>{0.5, 0.5, 1.0}));
  const std::vector<SpanningTree> reversed(ts.rbegin(), ts.rend());
  expect_exact(g, reversed, 1.0, {}, "reversed");
  EXPECT_EQ(compute_tree_bandwidths(g, reversed, 1.0).per_tree,
            (std::vector<double>{1.0, 0.5, 0.5}));
}

TEST(BandwidthMemoThreads, AlternatingPlansMatchTheOracle) {
  // Four threads alternate two tree sets through the process-wide memo,
  // so hits, misses and stores race; every answer must be the oracle's.
  const auto low = core::AllreducePlanner(7).solution(core::Solution::kLowDepth).build();
  const auto dis = core::AllreducePlanner(7).solution(core::Solution::kEdgeDisjoint).build();
  const auto want_low =
      oracle::compute_tree_bandwidths_reference(low.topology(), low.trees(), 1.0);
  const auto want_dis =
      oracle::compute_tree_bandwidths_reference(dis.topology(), dis.trees(), 1.0);
  std::vector<int> wrong(4, 0);
  std::vector<std::thread> threads;
  for (int w = 0; w < 4; ++w) {
    threads.emplace_back([&, w] {
      for (int i = 0; i < 40; ++i) {
        const bool first = (i + w) % 2 == 0;
        const auto& plan = first ? low : dis;
        const auto& want = first ? want_low : want_dis;
        const auto got =
            compute_tree_bandwidths(plan.topology(), plan.trees(), 1.0);
        if (got.per_tree != want.per_tree || got.aggregate != want.aggregate) {
          ++wrong[static_cast<std::size_t>(w)];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(wrong, std::vector<int>(4, 0));
}

}  // namespace
}  // namespace pfar::model
