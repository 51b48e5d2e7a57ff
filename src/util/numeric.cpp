#include "util/numeric.hpp"

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <stdexcept>

namespace pfar::util {

bool is_prime_power(int q, int* p_out, int* a_out) {
  if (q < 2) return false;
  int p = 0;
  int n = q;
  for (int d = 2; d * d <= n; ++d) {
    if (n % d == 0) {
      p = d;
      break;
    }
  }
  if (p == 0) p = n;  // q itself is prime
  int a = 0;
  while (n % p == 0) {
    n /= p;
    ++a;
  }
  if (n != 1) return false;
  if (p_out != nullptr) *p_out = p;
  if (a_out != nullptr) *a_out = a;
  return true;
}

std::vector<int> prime_powers_in(int lo, int hi) {
  std::vector<int> out;
  for (int q = std::max(lo, 2); q <= hi; ++q) {
    if (is_prime_power(q)) out.push_back(q);
  }
  return out;
}

long long gcd_ll(long long a, long long b) {
  a = std::llabs(a);
  b = std::llabs(b);
  while (b != 0) {
    const long long t = a % b;
    a = b;
    b = t;
  }
  return a;
}

long long mod_inverse(long long a, long long n) {
  // Extended Euclid.
  long long t = 0, new_t = 1;
  long long r = n, new_r = ((a % n) + n) % n;
  while (new_r != 0) {
    const long long quotient = r / new_r;
    long long tmp = t - quotient * new_t;
    t = new_t;
    new_t = tmp;
    tmp = r - quotient * new_r;
    r = new_r;
    new_r = tmp;
  }
  if (r != 1) throw std::invalid_argument("mod_inverse: not invertible");
  return ((t % n) + n) % n;
}

std::vector<long long> apportion(long long total,
                                 const std::vector<double>& weights) {
  const std::size_t k = weights.size();
  if (k == 0) throw std::invalid_argument("apportion: no weights");
  double sum = 0.0;
  for (double w : weights) {
    if (w < 0.0) throw std::invalid_argument("apportion: negative weight");
    sum += w;
  }
  std::vector<long long> out(k, 0);
  if (total == 0) return out;
  if (sum <= 0.0) {
    // Degenerate: split evenly.
    for (std::size_t i = 0; i < k; ++i) {
      out[i] = total / static_cast<long long>(k) +
               (static_cast<long long>(i) <
                        total % static_cast<long long>(k)
                    ? 1
                    : 0);
    }
    return out;
  }
  std::vector<double> remainder(k);
  long long assigned = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const double exact = static_cast<double>(total) * weights[i] / sum;
    out[i] = static_cast<long long>(exact);
    remainder[i] = exact - static_cast<double>(out[i]);
    assigned += out[i];
  }
  // Hand the leftover units to the largest remainders.
  std::vector<std::size_t> order(k);
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return remainder[a] > remainder[b];
  });
  for (std::size_t i = 0; assigned < total; ++i) {
    out[order[i % k]] += 1;
    ++assigned;
  }
  return out;
}

}  // namespace pfar::util
