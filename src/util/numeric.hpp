#pragma once

#include <cstdint>
#include <vector>

namespace pfar::util {

/// If q = p^a for prime p and a >= 1, returns true and fills p and a.
bool is_prime_power(int q, int* p_out = nullptr, int* a_out = nullptr);

/// All prime powers q with lo <= q <= hi, ascending.
std::vector<int> prime_powers_in(int lo, int hi);

/// Greatest common divisor of |a| and |b|.
long long gcd_ll(long long a, long long b);

/// Modular inverse of a mod n (gcd(a, n) must be 1), result in [0, n).
long long mod_inverse(long long a, long long n);

/// (a * b) mod n without overflow for n < 2^31.
inline long long mod_mul(long long a, long long b, long long n) {
  return ((a % n) * (b % n)) % n;
}

/// Splits `total` into `parts` non-negative integers proportional to
/// `weights` (largest-remainder apportionment); the result sums to `total`.
/// Used to realize the optimal sub-vector distribution of Theorem 5.1 with
/// integral element counts.
std::vector<long long> apportion(long long total,
                                 const std::vector<double>& weights);

}  // namespace pfar::util
