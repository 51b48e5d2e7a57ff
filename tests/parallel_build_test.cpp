// Determinism contract of the parallel construction fast paths: every
// parallelized builder must produce output bit-identical to its preserved
// single-threaded reference implementation, for every thread count. This
// is the test that lets callers treat `threads` as a pure performance
// knob — plans, benches and caches all assume it.

#include <gtest/gtest.h>

#include <vector>

#include "core/planner.hpp"
#include "model/congestion_model.hpp"
#include "oracle/reference_planning.hpp"
#include "polarfly/erq.hpp"
#include "polarfly/layout.hpp"
#include "singer/difference_set.hpp"
#include "singer/disjoint.hpp"
#include "singer/singer_graph.hpp"
#include "trees/hamiltonian.hpp"
#include "trees/low_depth.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar {
namespace {

const int kThreadCounts[] = {1, 2, 5};

void expect_same_trees(const std::vector<trees::SpanningTree>& a,
                       const std::vector<trees::SpanningTree>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t t = 0; t < a.size(); ++t) {
    EXPECT_EQ(a[t].root(), b[t].root()) << "tree " << t;
    EXPECT_EQ(a[t].parents(), b[t].parents()) << "tree " << t;
  }
}

class OddQParallelBuild : public ::testing::TestWithParam<int> {};

TEST_P(OddQParallelBuild, LowDepthMatchesReferenceForEveryThreadCount) {
  const polarfly::PolarFly pf(GetParam());
  const polarfly::Layout layout = polarfly::build_layout(pf);
  const auto reference = oracle::build_low_depth_trees_reference(pf, layout);
  for (int threads : kThreadCounts) {
    expect_same_trees(reference,
                      trees::build_low_depth_trees(pf, layout, threads));
  }
}

TEST_P(OddQParallelBuild, HamiltoniansMatchAcrossThreadCounts) {
  const auto d = singer::build_difference_set(GetParam());
  const auto reference = singer::find_disjoint_hamiltonians(d, 1);
  const auto reference_trees = trees::hamiltonian_trees(reference, 1);
  for (int threads : kThreadCounts) {
    const auto set = singer::find_disjoint_hamiltonians(d, threads);
    ASSERT_EQ(set.pairs, reference.pairs);
    ASSERT_EQ(set.size(), reference.size());
    for (int i = 0; i < set.size(); ++i) {
      EXPECT_EQ(set.paths[static_cast<std::size_t>(i)].vertices, reference.paths[static_cast<std::size_t>(i)].vertices);
    }
    expect_same_trees(reference_trees, trees::hamiltonian_trees(set, threads));
  }
}

INSTANTIATE_TEST_SUITE_P(SmallOddQ, OddQParallelBuild,
                         ::testing::Values(5, 7, 9, 11, 13));

class EvenQParallelBuild : public ::testing::TestWithParam<int> {};

TEST_P(EvenQParallelBuild, EvenLowDepthMatchesReferenceForEveryThreadCount) {
  const polarfly::PolarFly pf(GetParam());
  for (int starter : {0, 1}) {
    const auto reference =
        oracle::build_low_depth_trees_even_reference(pf, starter);
    for (int threads : kThreadCounts) {
      expect_same_trees(
          reference, trees::build_low_depth_trees_even(pf, starter, threads));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(SmallEvenQ, EvenQParallelBuild,
                         ::testing::Values(4, 8));

// Algorithm 1 fast path (incidence CSR + bottleneck segment tree) against
// the seed per-edge-scan implementation: EXPECT_EQ on doubles on purpose —
// the contract is bit-identity, not tolerance.
TEST(CongestionFastPath, BitIdenticalToReferenceOnLowDepthTrees) {
  for (int q : {5, 7, 9, 11, 13}) {
    const polarfly::PolarFly pf(q);
    const auto layout = polarfly::build_layout(pf);
    const auto ts = oracle::build_low_depth_trees_reference(pf, layout);
    const auto fast = model::compute_tree_bandwidths(pf.graph(), ts, 1.0);
    const auto ref =
        oracle::compute_tree_bandwidths_reference(pf.graph(), ts, 1.0);
    EXPECT_EQ(fast.aggregate, ref.aggregate) << "q=" << q;
    EXPECT_EQ(fast.per_tree, ref.per_tree) << "q=" << q;
  }
}

TEST(CongestionFastPath, BitIdenticalToReferenceOnHamiltonianTrees) {
  for (int q : {5, 7, 9, 11}) {
    const singer::SingerGraph sg(q);
    const auto set = singer::find_disjoint_hamiltonians(sg.difference_set());
    const auto ts = trees::hamiltonian_trees(set);
    const auto fast = model::compute_tree_bandwidths(sg.graph(), ts, 1.0);
    const auto ref =
        oracle::compute_tree_bandwidths_reference(sg.graph(), ts, 1.0);
    EXPECT_EQ(fast.aggregate, ref.aggregate) << "q=" << q;
    EXPECT_EQ(fast.per_tree, ref.per_tree) << "q=" << q;
  }
}

TEST(CongestionFastPath, NonUniformLinkBandwidth) {
  const polarfly::PolarFly pf(7);
  const auto layout = polarfly::build_layout(pf);
  const auto ts = oracle::build_low_depth_trees_reference(pf, layout);
  for (double b : {0.5, 2.0, 12.5}) {
    const auto fast = model::compute_tree_bandwidths(pf.graph(), ts, b);
    const auto ref =
        oracle::compute_tree_bandwidths_reference(pf.graph(), ts, b);
    EXPECT_EQ(fast.aggregate, ref.aggregate) << "B=" << b;
    EXPECT_EQ(fast.per_tree, ref.per_tree) << "B=" << b;
  }
}

// Full front door: AllreducePlanner with an explicit thread count must be
// indistinguishable from the default, for both paper solutions.
TEST(PlannerThreads, PlansIdenticalAcrossThreadCounts) {
  for (const core::Solution s :
       {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
    const auto base = core::AllreducePlanner(7).solution(s).threads(1).build();
    for (int threads : {2, 5}) {
      const auto plan =
          core::AllreducePlanner(7).solution(s).threads(threads).build();
      ASSERT_EQ(plan.num_trees(), base.num_trees());
      for (int t = 0; t < plan.num_trees(); ++t) {
        EXPECT_EQ(plan.trees()[static_cast<std::size_t>(t)].root(), base.trees()[static_cast<std::size_t>(t)].root());
        EXPECT_EQ(plan.trees()[static_cast<std::size_t>(t)].parents(), base.trees()[static_cast<std::size_t>(t)].parents());
      }
      EXPECT_EQ(plan.aggregate_bandwidth(), base.aggregate_bandwidth());
      EXPECT_EQ(plan.bandwidths().per_tree, base.bandwidths().per_tree);
    }
  }
}

}  // namespace
}  // namespace pfar
