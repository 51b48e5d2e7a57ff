// Verification of the paper's Section 7.3 claim in full: "S_q contains a
// set of floor((q+1)/2) edge-disjoint Hamiltonian paths for all prime
// powers q < 128". The paper verified this with 30 random maximal
// independent sets; here the exact matching method proves it
// constructively for every design point.

#include <gtest/gtest.h>

#include "oracle/reference_math.hpp"
#include "singer/disjoint.hpp"
#include "util/numeric.hpp"

namespace pfar::singer {
namespace {

class FullRange : public ::testing::TestWithParam<int> {};

TEST_P(FullRange, DisjointHamiltonianSetAttainsBound) {
  const int q = GetParam();
  const DifferenceSet d = build_difference_set(q);
  ASSERT_TRUE(is_valid_difference_set(d.elements, d.n));
  const auto set = find_disjoint_hamiltonians(d);
  EXPECT_EQ(set.size(), disjoint_hamiltonian_upper_bound(q)) << "q=" << q;
  // Element-disjoint color pairs imply edge-disjoint paths; the pairs must
  // all be coprime-difference (Hamiltonian) pairs.
  for (const auto& [d0, d1] : set.pairs) {
    EXPECT_EQ(util::gcd_ll(d0 - d1, d.n), 1);
  }
  // Corollary 7.20 at every design point.
  EXPECT_EQ(count_hamiltonian_paths(d), oracle::totient(d.n));
}

INSTANTIATE_TEST_SUITE_P(
    AllPrimePowersBelow128, FullRange,
    ::testing::ValuesIn(util::prime_powers_in(2, 127)));

}  // namespace
}  // namespace pfar::singer
