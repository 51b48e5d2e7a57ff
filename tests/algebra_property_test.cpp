// Deeper algebraic property tests: subfield structure of F_{p^a},
// invariance properties of Singer difference sets, and spectral-free
// strong-regularity facts of ER_q used implicitly by the paper's proofs.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "gf/field.hpp"
#include "oracle/reference_math.hpp"
#include "singer/difference_set.hpp"
#include "util/numeric.hpp"

namespace pfar {
namespace {

TEST(SubfieldTest, FrobeniusFixedPointsFormSubfields) {
  // x -> x^(p^d) fixes exactly p^d elements (the subfield F_{p^d}) for
  // every divisor d of a.
  for (int q : {4, 8, 9, 16, 27, 64, 81}) {
    const gf::Field f(q);
    const int p = f.p();
    const int a = f.degree();
    for (int d = 1; d < a; ++d) {
      if (a % d != 0) continue;
      long long sub_order = 1;
      for (int i = 0; i < d; ++i) sub_order *= p;
      int fixed = 0;
      std::set<gf::Elem> subfield;
      for (gf::Elem x = 0; x < q; ++x) {
        if (oracle::field_pow(f, x, sub_order) == x) {
          ++fixed;
          subfield.insert(x);
        }
      }
      EXPECT_EQ(fixed, sub_order) << "q=" << q << " d=" << d;
      // The fixed set is closed under + and * (it is a field).
      for (gf::Elem x : subfield) {
        for (gf::Elem y : subfield) {
          EXPECT_TRUE(subfield.count(f.add(x, y)));
          EXPECT_TRUE(subfield.count(f.mul(x, y)));
        }
      }
    }
  }
}

TEST(SubfieldTest, MultiplicativeGroupIsCyclicOfOrderQMinus1) {
  for (int q : {7, 8, 9, 25, 32, 49}) {
    const gf::Field f(q);
    // Element orders divide q-1; the generator attains it; the number of
    // elements of order exactly q-1 is phi(q-1).
    int primitive_count = 0;
    for (gf::Elem x = 1; x < q; ++x) {
      long long order = 1;
      gf::Elem cur = x;
      while (cur != 1) {
        cur = f.mul(cur, x);
        ++order;
        ASSERT_LE(order, q - 1);
      }
      EXPECT_EQ((q - 1) % order, 0);
      if (order == q - 1) ++primitive_count;
    }
    EXPECT_EQ(primitive_count, oracle::totient(q - 1));
  }
}

class DifferenceSetInvariance : public ::testing::TestWithParam<int> {};

TEST_P(DifferenceSetInvariance, TranslationPreservesTheProperty) {
  const auto d = singer::build_difference_set(GetParam());
  for (long long shift : {1LL, 5LL, d.n - 1}) {
    std::vector<long long> shifted;
    for (long long e : d.elements) shifted.push_back((e + shift) % d.n);
    std::sort(shifted.begin(), shifted.end());
    EXPECT_TRUE(singer::is_valid_difference_set(shifted, d.n));
  }
}

TEST_P(DifferenceSetInvariance, UnitMultiplicationPreservesTheProperty) {
  // D -> u*D for gcd(u, N) = 1 is again a perfect difference set (the
  // classical multiplier action; our Hamiltonian-pair counting leans on
  // every residue appearing once, which this exercises from another side).
  const auto d = singer::build_difference_set(GetParam());
  for (long long u = 2; u < d.n; ++u) {
    if (util::gcd_ll(u, d.n) != 1) continue;
    std::vector<long long> scaled;
    for (long long e : d.elements) scaled.push_back(util::mod_mul(u, e, d.n));
    std::sort(scaled.begin(), scaled.end());
    EXPECT_TRUE(singer::is_valid_difference_set(scaled, d.n)) << "u=" << u;
    if (u > 12) break;  // a handful of units suffices per q
  }
}

TEST_P(DifferenceSetInvariance, EveryResidueIsAUniqueDifference) {
  // The fact Corollary 7.20's phi(N) count rests on, checked directly:
  // the map (i, j) -> d_i - d_j mod N is a bijection onto 1..N-1.
  const auto d = singer::build_difference_set(GetParam());
  std::set<long long> seen;
  for (long long di : d.elements) {
    for (long long dj : d.elements) {
      if (di == dj) continue;
      const long long diff = ((di - dj) % d.n + d.n) % d.n;
      EXPECT_TRUE(seen.insert(diff).second);
    }
  }
  EXPECT_EQ(static_cast<long long>(seen.size()), d.n - 1);
}

INSTANTIATE_TEST_SUITE_P(PrimePowers, DifferenceSetInvariance,
                         ::testing::Values(3, 4, 5, 7, 8, 9, 11, 13));

}  // namespace
}  // namespace pfar
