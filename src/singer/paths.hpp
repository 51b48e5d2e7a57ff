#pragma once

#include <utility>
#include <vector>

#include "singer/difference_set.hpp"

namespace pfar::singer {

/// A maximal alternating-sum non-repeating path in S_q (Definitions
/// 7.9-7.11, Corollary 7.15): edge sums alternate between the two distinct
/// difference-set elements d0 and d1; both endpoints are reflection points.
struct AlternatingPath {
  long long d0 = 0;                // edge sum of (b_{i-1}, b_i) for even i
  long long d1 = 0;                // edge sum for odd i
  std::vector<long long> vertices;  // b_1 .. b_k
  bool hamiltonian = false;        // k == N

  long long length() const {
    return static_cast<long long>(vertices.size()) - 1;  // edges
  }
};

/// Constructs the unique maximal alternating-sum non-repeating path for the
/// ordered pair (d0, d1) per Corollary 7.15: b_1 = 2^{-1} d1, then
/// b_i = d0 - b_{i-1} (i even) / d1 - b_{i-1} (i odd), for the
/// k = N / gcd(d0 - d1, N) vertices of Theorem 7.13. Throws
/// std::invalid_argument when d0 == d1.
AlternatingPath build_alternating_path(const DifferenceSet& d, long long d0,
                                       long long d1);

/// All unordered pairs {d0, d1} from D whose maximal path is Hamiltonian,
/// i.e. gcd(d0 - d1, N) == 1 (Corollary 7.15(5)). Pairs are (smaller,
/// larger) and sorted.
std::vector<std::pair<long long, long long>> hamiltonian_pairs(
    const DifferenceSet& d);

/// Number of alternating-sum Hamiltonian paths, counting reversals as
/// distinct; equals Euler's totient phi(N) (Corollary 7.20).
long long count_hamiltonian_paths(const DifferenceSet& d);

}  // namespace pfar::singer
