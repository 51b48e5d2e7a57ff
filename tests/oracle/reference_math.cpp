#include "oracle/reference_math.hpp"

#include <stdexcept>

namespace pfar::oracle {

long long totient(long long n) {
  if (n < 1) throw std::invalid_argument("totient: n must be >= 1");
  long long result = n;
  long long m = n;
  for (long long d = 2; d * d <= m; ++d) {
    if (m % d == 0) {
      result -= result / d;
      while (m % d == 0) m /= d;
    }
  }
  if (m > 1) result -= result / m;
  return result;
}

int common_neighbor_count(const graph::Graph& g, int u, int v) {
  const auto a = g.neighbors(u);
  const auto b = g.neighbors(v);
  int count = 0;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++count;
      ++i;
      ++j;
    } else if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return count;
}

gf::Elem field_pow(const gf::Field& f, gf::Elem x, long long e) {
  if (e < 0) throw std::invalid_argument("field_pow: negative exponent");
  gf::Elem result = f.one();
  for (; e > 0; e >>= 1) {
    if (e & 1) result = f.mul(result, x);
    x = f.mul(x, x);
  }
  return result;
}

}  // namespace pfar::oracle
