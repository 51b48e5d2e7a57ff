#include <gtest/gtest.h>

#include <algorithm>

#include "oracle/reference_math.hpp"
#include "singer/difference_set.hpp"
#include "singer/singer_graph.hpp"

namespace pfar::singer {
namespace {

TEST(DifferenceSetTest, PaperValuesForQ3) {
  // Figure 2a: D = {0, 1, 3, 9} over Z_13.
  const DifferenceSet d = build_difference_set(3);
  EXPECT_EQ(d.n, 13);
  EXPECT_EQ(d.elements, (std::vector<long long>{0, 1, 3, 9}));
}

TEST(DifferenceSetTest, PaperValuesForQ4) {
  // Figure 2b: D = {0, 1, 4, 14, 16} over Z_21.
  const DifferenceSet d = build_difference_set(4);
  EXPECT_EQ(d.n, 21);
  EXPECT_EQ(d.elements, (std::vector<long long>{0, 1, 4, 14, 16}));
}

TEST(DifferenceSetTest, PaperReflectionPointsQ3) {
  // Figure 2a: reflection points (quadrics) {0, 7, 8, 11}.
  const DifferenceSet d = build_difference_set(3);
  EXPECT_EQ(reflection_points(d), (std::vector<long long>{0, 7, 8, 11}));
}

TEST(DifferenceSetTest, PaperReflectionPointsQ4) {
  // Figure 2b: reflection points {0, 2, 7, 8, 11}.
  const DifferenceSet d = build_difference_set(4);
  EXPECT_EQ(reflection_points(d), (std::vector<long long>{0, 2, 7, 8, 11}));
}

class DifferenceSetInvariants : public ::testing::TestWithParam<int> {};

TEST_P(DifferenceSetInvariants, DefinitionHolds) {
  const int q = GetParam();
  const DifferenceSet d = build_difference_set(q);
  EXPECT_EQ(static_cast<int>(d.elements.size()), q + 1);
  EXPECT_EQ(d.n, static_cast<long long>(q) * q + q + 1);
  EXPECT_TRUE(is_valid_difference_set(d.elements, d.n));
}

TEST_P(DifferenceSetInvariants, ReflectionPointsAreHalvedElements) {
  // Corollary 6.8: w = 2^{-1} d_i; doubling a reflection point lands in D.
  const int q = GetParam();
  const DifferenceSet d = build_difference_set(q);
  const auto refl = reflection_points(d);
  EXPECT_EQ(refl.size(), d.elements.size());
  for (long long r : refl) {
    const long long doubled = (2 * r) % d.n;
    EXPECT_TRUE(std::binary_search(d.elements.begin(), d.elements.end(),
                                   doubled));
  }
}

INSTANTIATE_TEST_SUITE_P(PrimePowers, DifferenceSetInvariants,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 9, 11, 13, 16,
                                           17, 19, 23, 25, 27));

TEST(DifferenceSetTest, ValidatorRejectsBadSets) {
  EXPECT_FALSE(is_valid_difference_set({0, 1, 2, 3}, 13));   // repeats diff 1
  EXPECT_FALSE(is_valid_difference_set({0, 1, 3}, 13));      // too small
  EXPECT_TRUE(is_valid_difference_set({0, 1, 3, 9}, 13));
  // Translation invariance: D + c is also a difference set.
  EXPECT_TRUE(is_valid_difference_set({5, 6, 8, 1}, 13));
}

class SingerGraphInvariants : public ::testing::TestWithParam<int> {};

TEST_P(SingerGraphInvariants, MatchesErqCounts) {
  const int q = GetParam();
  const SingerGraph s(q);
  const long long n = s.n();
  EXPECT_EQ(n, static_cast<long long>(q) * q + q + 1);
  EXPECT_EQ(s.graph().num_vertices(), n);
  EXPECT_EQ(s.graph().num_edges(), q * (q + 1) * (q + 1) / 2);
  // Reflection points (quadrics) have degree q, the rest q+1.
  for (int v = 0; v < n; ++v) {
    EXPECT_EQ(s.graph().degree(v), s.is_reflection_point(v) ? q : q + 1);
  }
  EXPECT_EQ(static_cast<int>(s.reflection().size()), q + 1);
}

TEST_P(SingerGraphInvariants, DiameterTwoAndUniqueTwoPaths) {
  // The ER_q invariants (Theorem 6.1) must hold for the isomorphic Singer
  // construction as well.
  const int q = GetParam();
  const SingerGraph s(q);
  if (s.n() > 400) GTEST_SKIP();
  EXPECT_EQ(s.graph().diameter(), 2);
  for (int u = 0; u < s.n(); ++u) {
    for (int v = u + 1; v < s.n(); ++v) {
      EXPECT_LE(oracle::common_neighbor_count(s.graph(), u, v), 1);
    }
  }
}

TEST_P(SingerGraphInvariants, EdgeSumsLieInDifferenceSet) {
  const int q = GetParam();
  const SingerGraph s(q);
  const auto& d = s.difference_set().elements;
  for (const auto& e : s.graph().edges()) {
    EXPECT_TRUE(std::binary_search(d.begin(), d.end(), s.edge_sum(e.u, e.v)));
  }
}

TEST_P(SingerGraphInvariants, ColorClassesPartitionEdges) {
  // Every edge has exactly one color; color c covers (N-1)/2 edges if c is
  // not twice a reflection point... simpler exact check: each color class
  // has (N-1)/2 edges when the self-loop vertex is excluded, and the
  // classes partition all q(q+1)^2/2 edges.
  const int q = GetParam();
  const SingerGraph s(q);
  const long long n = s.n();
  std::vector<long long> count;
  for (long long d : s.difference_set().elements) {
    long long c = 0;
    for (const auto& e : s.graph().edges()) {
      if (s.edge_sum(e.u, e.v) == d) ++c;
    }
    count.push_back(c);
    // Pairs (i, j), i != j, with i+j = d mod N: (N-1)/2 unordered pairs.
    EXPECT_EQ(c, (n - 1) / 2) << "color " << d;
  }
  long long total = 0;
  for (long long c : count) total += c;
  EXPECT_EQ(total, s.graph().num_edges());
}

INSTANTIATE_TEST_SUITE_P(PrimePowers, SingerGraphInvariants,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 9, 11, 13));

}  // namespace
}  // namespace pfar::singer
