#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "oracle/reference_math.hpp"
#include "singer/paths.hpp"
#include "singer/singer_graph.hpp"
#include "util/numeric.hpp"

namespace pfar::singer {
namespace {

class PathTheorems : public ::testing::TestWithParam<int> {};

// Closed-form b_i (1-indexed) derived from the recurrence of Corollary
// 7.15 (the paper's Corollary 7.16 prints the even/odd cases swapped):
//   b_i = (i/2)(d0 - d1) + b_1        for even i,
//   b_i = ((i-1)/2)(d1 - d0) + b_1    for odd i.
long long alternating_path_element(const DifferenceSet& d, long long d0,
                                   long long d1, long long i) {
  const long long n = d.n;
  const long long b1 = util::mod_mul(util::mod_inverse(2, n), d1, n);
  const long long step = i % 2 == 0 ? d0 - d1 : d1 - d0;
  const long long t = (step % n + n) % n;
  return (util::mod_mul(i / 2, t, n) + b1) % n;
}

TEST_P(PathTheorems, VertexCountFormula) {
  // Theorem 7.13: k = N / gcd(d0 - d1, N), verified constructively.
  const DifferenceSet d = build_difference_set(GetParam());
  for (long long d0 : d.elements) {
    for (long long d1 : d.elements) {
      if (d0 == d1) continue;
      const auto path = build_alternating_path(d, d0, d1);
      EXPECT_EQ(static_cast<long long>(path.vertices.size()),
                d.n / util::gcd_ll(d0 - d1, d.n));
    }
  }
}

TEST_P(PathTheorems, PathsAreNonRepeating) {
  const DifferenceSet d = build_difference_set(GetParam());
  for (long long d0 : d.elements) {
    for (long long d1 : d.elements) {
      if (d0 == d1) continue;
      const auto path = build_alternating_path(d, d0, d1);
      std::set<long long> uniq(path.vertices.begin(), path.vertices.end());
      EXPECT_EQ(uniq.size(), path.vertices.size());
    }
  }
}

TEST_P(PathTheorems, EdgesExistInSingerGraphWithAlternatingSums) {
  // Every consecutive pair must be a Singer-graph edge, with edge sums
  // alternating d0 (even steps) and d1 (odd steps) per Definition 7.11.
  const int q = GetParam();
  const SingerGraph s(q);
  const DifferenceSet& d = s.difference_set();
  for (long long d0 : d.elements) {
    for (long long d1 : d.elements) {
      if (d0 == d1) continue;
      const auto path = build_alternating_path(d, d0, d1);
      for (std::size_t i = 1; i < path.vertices.size(); ++i) {
        const int a = static_cast<int>(path.vertices[i - 1]);
        const int b = static_cast<int>(path.vertices[i]);
        EXPECT_TRUE(s.graph().has_edge(a, b)) << a << "-" << b;
        // Step i (1-based vertex index i+1): edge (b_i, b_{i+1}) has sum
        // d0 if i+1 is even, d1 if odd.
        const long long expected = ((i + 1) % 2 == 0) ? d0 : d1;
        EXPECT_EQ(s.edge_sum(a, b), expected);
      }
    }
  }
}

TEST_P(PathTheorems, EndpointsAreReflectionPoints) {
  // Lemma 7.12: b_1 = 2^{-1} d1 and b_k = 2^{-1} d0, both reflection points.
  const DifferenceSet d = build_difference_set(GetParam());
  const long long half = util::mod_inverse(2, d.n);
  const auto refl = reflection_points(d);
  for (long long d0 : d.elements) {
    for (long long d1 : d.elements) {
      if (d0 == d1) continue;
      const auto path = build_alternating_path(d, d0, d1);
      EXPECT_EQ(path.vertices.front(), util::mod_mul(half, d1, d.n));
      EXPECT_EQ(path.vertices.back(), util::mod_mul(half, d0, d.n));
      EXPECT_TRUE(std::binary_search(refl.begin(), refl.end(),
                                     path.vertices.front()));
      EXPECT_TRUE(std::binary_search(refl.begin(), refl.end(),
                                     path.vertices.back()));
      EXPECT_EQ(path.vertices.size() % 2, 1u);  // k is odd (Lemma 7.12)
    }
  }
}

TEST_P(PathTheorems, ClosedFormMatchesIteration) {
  // Corollary 7.16.
  const DifferenceSet d = build_difference_set(GetParam());
  for (long long d0 : d.elements) {
    for (long long d1 : d.elements) {
      if (d0 == d1) continue;
      const auto path = build_alternating_path(d, d0, d1);
      for (std::size_t i = 1; i <= path.vertices.size(); ++i) {
        EXPECT_EQ(
            alternating_path_element(d, d0, d1, static_cast<long long>(i)),
            path.vertices[i - 1])
            << "i=" << i;
      }
    }
  }
}

TEST_P(PathTheorems, HamiltonianIffCoprime) {
  const DifferenceSet d = build_difference_set(GetParam());
  for (long long d0 : d.elements) {
    for (long long d1 : d.elements) {
      if (d0 == d1) continue;
      const auto path = build_alternating_path(d, d0, d1);
      EXPECT_EQ(path.hamiltonian, util::gcd_ll(d0 - d1, d.n) == 1);
      if (path.hamiltonian) {
        EXPECT_EQ(static_cast<long long>(path.vertices.size()), d.n);
      }
    }
  }
}

TEST_P(PathTheorems, HamiltonianCountIsTotient) {
  // Corollary 7.20.
  const DifferenceSet d = build_difference_set(GetParam());
  EXPECT_EQ(count_hamiltonian_paths(d), oracle::totient(d.n));
}

INSTANTIATE_TEST_SUITE_P(PrimePowers, PathTheorems,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 9, 11, 13, 16));

TEST(PathsTest, TableTwoNonHamiltonianPathsForQ4) {
  // Table 2: all non-Hamiltonian maximal alternating-sum paths in S_4 with
  // D = {0, 1, 4, 14, 16} (up to reversal): (d0, d1, k, b1, bk).
  const DifferenceSet d = build_difference_set(4);
  struct Row {
    long long d0, d1, k, b1, bk;
  };
  const std::vector<Row> expected{
      {0, 14, 3, 7, 0},
      {1, 4, 7, 2, 11},
      {1, 16, 7, 8, 11},
      {4, 16, 7, 8, 2},
  };
  std::vector<Row> actual;
  for (std::size_t i = 0; i < d.elements.size(); ++i) {
    for (std::size_t j = 0; j < d.elements.size(); ++j) {
      if (i == j) continue;
      const long long d0 = d.elements[i], d1 = d.elements[j];
      if (util::gcd_ll(d0 - d1, d.n) == 1) continue;
      if (d0 > d1) continue;  // exclude reversals, as the table does
      const auto path = build_alternating_path(d, d0, d1);
      actual.push_back(Row{d0, d1,
                           static_cast<long long>(path.vertices.size()),
                           path.vertices.front(), path.vertices.back()});
    }
  }
  ASSERT_EQ(actual.size(), expected.size());
  for (std::size_t r = 0; r < expected.size(); ++r) {
    EXPECT_EQ(actual[r].d0, expected[r].d0);
    EXPECT_EQ(actual[r].d1, expected[r].d1);
    EXPECT_EQ(actual[r].k, expected[r].k);
    EXPECT_EQ(actual[r].b1, expected[r].b1);
    EXPECT_EQ(actual[r].bk, expected[r].bk);
  }
}

TEST(PathsTest, PrimeOrderMakesAllPathsHamiltonian) {
  // q = 3 => N = 13 prime: every maximal alternating-sum path spans.
  const DifferenceSet d = build_difference_set(3);
  for (long long d0 : d.elements) {
    for (long long d1 : d.elements) {
      if (d0 == d1) continue;
      EXPECT_TRUE(build_alternating_path(d, d0, d1).hamiltonian);
    }
  }
}

TEST(PathsTest, ReversedPairGivesReversedPath) {
  const DifferenceSet d = build_difference_set(5);
  const auto fwd = build_alternating_path(d, d.elements[0], d.elements[1]);
  auto rev = build_alternating_path(d, d.elements[1], d.elements[0]);
  std::reverse(rev.vertices.begin(), rev.vertices.end());
  EXPECT_EQ(fwd.vertices, rev.vertices);
}

TEST(PathsTest, RejectsEqualSums) {
  const DifferenceSet d = build_difference_set(3);
  EXPECT_THROW(build_alternating_path(d, 1, 1), std::invalid_argument);
}

}  // namespace
}  // namespace pfar::singer
