#include "singer/paths.hpp"

#include <stdexcept>

#include "util/numeric.hpp"

namespace pfar::singer {

AlternatingPath build_alternating_path(const DifferenceSet& d, long long d0,
                                       long long d1) {
  if (d0 == d1) throw std::invalid_argument("alternating path: d0 == d1");
  const long long n = d.n;
  const long long k = n / util::gcd_ll(d0 - d1, n);  // Theorem 7.13
  const long long half = util::mod_inverse(2, n);

  AlternatingPath path;
  path.d0 = d0;
  path.d1 = d1;
  path.vertices.reserve(static_cast<std::size_t>(k));
  long long b = util::mod_mul(half, d1, n);  // b_1 = 2^{-1} d1 (Lemma 7.12)
  path.vertices.push_back(b);
  for (long long i = 2; i <= k; ++i) {
    const long long sum = (i % 2 == 0) ? d0 : d1;
    b = ((sum - b) % n + n) % n;
    path.vertices.push_back(b);
  }
  path.hamiltonian = (k == n);
  return path;
}

std::vector<std::pair<long long, long long>> hamiltonian_pairs(
    const DifferenceSet& d) {
  std::vector<std::pair<long long, long long>> out;
  const auto& e = d.elements;
  for (std::size_t i = 0; i < e.size(); ++i) {
    for (std::size_t j = i + 1; j < e.size(); ++j) {
      if (util::gcd_ll(e[i] - e[j], d.n) == 1) {
        out.emplace_back(e[i], e[j]);
      }
    }
  }
  return out;
}

long long count_hamiltonian_paths(const DifferenceSet& d) {
  // Ordered pairs (reversals distinct): twice the unordered count.
  return 2 * static_cast<long long>(hamiltonian_pairs(d).size());
}

}  // namespace pfar::singer
