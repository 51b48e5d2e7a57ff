#include "gf/field.hpp"

#include <map>
#include <stdexcept>

#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/thread_annotations.hpp"

namespace pfar::gf {
namespace {

// Digit-vector helpers over F_p used only during construction.
using Digits = std::vector<int>;

Digits to_digits(int value, int p, int len) {
  Digits d(static_cast<std::size_t>(len), 0);
  for (int i = 0; i < len; ++i) {
    d[static_cast<std::size_t>(i)] = value % p;
    value /= p;
  }
  return d;
}

int from_digits(const Digits& d, int p) {
  int value = 0;
  for (int i = static_cast<int>(d.size()) - 1; i >= 0; --i) {
    value = value * p + d[static_cast<std::size_t>(i)];
  }
  return value;
}

// Multiplies the degree-(a-1) element `d` by x and reduces modulo the monic
// polynomial with low coefficients `mod` (mod has a entries c_0..c_{a-1};
// the leading coefficient c_a == 1 is implicit).
Digits mul_by_x_mod(const Digits& d, const Digits& mod, int p) {
  const int a = static_cast<int>(d.size());
  Digits out(static_cast<std::size_t>(a), 0);
  const int carry = d[static_cast<std::size_t>(a - 1)];  // coefficient that overflows into x^a
  for (int i = a - 1; i >= 1; --i) out[static_cast<std::size_t>(i)] = d[static_cast<std::size_t>(i - 1)];
  out[0] = 0;
  if (carry != 0) {
    // x^a == -mod (mod f), so subtract carry * mod.
    for (int i = 0; i < a; ++i) {
      out[static_cast<std::size_t>(i)] = (out[static_cast<std::size_t>(i)] - carry * mod[static_cast<std::size_t>(i)]) % p;
      if (out[static_cast<std::size_t>(i)] < 0) out[static_cast<std::size_t>(i)] += p;
    }
  }
  return out;
}

// Order of x in (F_p[x]/f)^*, bounded by `bound`; returns 0 if x never
// returns to 1 within `bound` steps (i.e. x is not a unit or order > bound).
long long order_of_x(const Digits& mod, int p, long long bound) {
  const int a = static_cast<int>(mod.size());
  Digits cur(static_cast<std::size_t>(a), 0);
  if (a == 1) {
    // Degenerate: handled by the prime-field path; not used.
    return 0;
  }
  cur[1] = 1;  // the element x (== x^1)
  Digits one(static_cast<std::size_t>(a), 0);
  one[0] = 1;
  long long k = 1;  // invariant: cur == x^k
  while (cur != one) {
    if (k >= bound) return 0;
    cur = mul_by_x_mod(cur, mod, p);
    ++k;
  }
  return k;
}

}  // namespace

Field::Field(int q) {
  int p = 0, a = 0;
  if (q < 2 || q > 4096 || !util::is_prime_power(q, &p, &a)) {
    throw std::invalid_argument("Field: q must be a prime power in [2, 4096]");
  }
  q_ = q;
  p_ = p;
  a_ = a;

  neg_.resize(static_cast<std::size_t>(q_));
  inv_.assign(static_cast<std::size_t>(q_), 0);
  add_.resize(static_cast<std::size_t>(q_) * static_cast<std::size_t>(q_));
  mul_.resize(static_cast<std::size_t>(q_) * static_cast<std::size_t>(q_));
  exp_.resize(static_cast<std::size_t>(q_ - 1));
  // Discrete logs base the generator; needed only to build the tables.
  std::vector<int> log_of(static_cast<std::size_t>(q_), -1);

  // Addition is digit-wise mod p regardless of the modulus polynomial.
  for (Elem x = 0; x < q_; ++x) {
    for (Elem y = 0; y < q_; ++y) {
      int value = 0;
      int xv = x, yv = y, scale = 1;
      for (int i = 0; i < a_; ++i) {
        value += ((xv % p_) + (yv % p_)) % p_ * scale;
        xv /= p_;
        yv /= p_;
        scale *= p_;
      }
      add_[static_cast<std::size_t>(idx(x, y))] = value;
    }
  }
  for (Elem x = 0; x < q_; ++x) {
    int value = 0;
    int xv = x, scale = 1;
    for (int i = 0; i < a_; ++i) {
      value += ((p_ - (xv % p_)) % p_) * scale;
      xv /= p_;
      scale *= p_;
    }
    neg_[static_cast<std::size_t>(x)] = value;
  }

  if (a_ == 1) {
    // Prime field: pick the smallest primitive root as generator.
    int g = 0;
    for (int cand = 1; cand < p_ && g == 0; ++cand) {
      long long ord = 1;
      long long cur = cand;
      while (cur != 1) {
        cur = (cur * cand) % p_;
        ++ord;
        if (ord > p_) break;
      }
      if (ord == p_ - 1) g = cand;
    }
    if (g == 0 && p_ == 2) g = 1;
    if (g == 0) throw std::logic_error("Field: no primitive root found");
    long long cur = 1;
    for (int i = 0; i < q_ - 1; ++i) {
      exp_[static_cast<std::size_t>(i)] = static_cast<Elem>(cur);
      log_of[static_cast<std::size_t>(cur)] = i;
      cur = (cur * g) % p_;
    }
    for (Elem x = 0; x < q_; ++x) {
      for (Elem y = 0; y < q_; ++y) {
        mul_[static_cast<std::size_t>(idx(x, y))] = static_cast<Elem>((1LL * x * y) % p_);
      }
    }
  } else {
    // Extension field: find the lexicographically smallest monic degree-a
    // polynomial f over F_p whose root x is primitive. Candidates are
    // ordered by their coefficient encoding (c_{a-1}, ..., c_0).
    Digits mod;
    bool found = false;
    for (int enc = 1; enc < q_ && !found; ++enc) {
      Digits cand = to_digits(enc, p_, a_);
      if (cand[0] == 0) continue;  // x | f => x not a unit
      if (order_of_x(cand, p_, q_ - 1) == q_ - 1) {
        mod = cand;
        found = true;
      }
    }
    if (!found) throw std::logic_error("Field: no primitive polynomial found");
    modulus_ = mod;
    modulus_.push_back(1);  // record the monic leading coefficient

    // exp table: successive powers of the root x.
    Digits cur(static_cast<std::size_t>(a_), 0);
    cur[0] = 1;  // x^0
    for (int i = 0; i < q_ - 1; ++i) {
      const Elem e = static_cast<Elem>(from_digits(cur, p_));
      exp_[static_cast<std::size_t>(i)] = e;
      log_of[static_cast<std::size_t>(e)] = i;
      cur = mul_by_x_mod(cur, mod, p_);
    }
    // Multiplication via logs.
    for (Elem x = 0; x < q_; ++x) {
      for (Elem y = 0; y < q_; ++y) {
        if (x == 0 || y == 0) {
          mul_[static_cast<std::size_t>(idx(x, y))] = 0;
        } else {
          mul_[static_cast<std::size_t>(idx(x, y))] = exp_[static_cast<std::size_t>(
              (log_of[static_cast<std::size_t>(x)] +
               log_of[static_cast<std::size_t>(y)]) %
              (q_ - 1))];
        }
      }
    }
  }

  for (Elem x = 1; x < q_; ++x) {
    inv_[static_cast<std::size_t>(x)] = exp_[static_cast<std::size_t>(
        (q_ - 1 - log_of[static_cast<std::size_t>(x)]) % (q_ - 1))];
  }

  // Every non-zero element must have landed in the exp/log bijection, and 1
  // must be the multiplicative identity we claim it is.
  PFAR_ENSURE(log_of[1] == 0, q_, p_, a_);
  for (Elem x = 1; x < q_; ++x) {
    PFAR_ENSURE(log_of[static_cast<std::size_t>(x)] >= 0, x, q_);
  }

#if PFAR_AUDIT_ENABLED
  // Field-axiom sweep (audit builds only; O(q^2) table reads): identities,
  // inverses, commutativity and sampled distributivity.
  for (Elem x = 0; x < q_; ++x) {
    PFAR_INVARIANT(add(x, zero()) == x, x, q_);
    PFAR_INVARIANT(mul(x, one()) == x, x, q_);
    PFAR_INVARIANT(add(x, neg(x)) == zero(), x, q_);
    if (x != 0) PFAR_INVARIANT(mul(x, inv_[static_cast<std::size_t>(x)]) == one(), x, q_);
    for (Elem y = 0; y < q_; ++y) {
      PFAR_INVARIANT(add(x, y) == add(y, x), x, y, q_);
      PFAR_INVARIANT(mul(x, y) == mul(y, x), x, y, q_);
    }
    // Distributivity sampled along one row per x to keep the sweep O(q^2).
    const Elem y = static_cast<Elem>((x * 7 + 3) % q_);
    const Elem z = static_cast<Elem>((x * 5 + 1) % q_);
    PFAR_INVARIANT(mul(x, add(y, z)) == add(mul(x, y), mul(x, z)), x, y, z);
  }
#endif
}

Elem Field::inv(Elem x) const {
  if (x == 0) throw std::domain_error("Field::inv: zero has no inverse");
  return inv_[static_cast<std::size_t>(x)];
}

namespace {

// Process-wide memo behind shared_field. Strong entries pin small fields
// (tables are O(q^2): ~8 MiB at the q = 1024 cutoff); weak entries let
// the largest tables be reclaimed. A named struct (rather than three
// function-local statics) so the maps can carry PFAR_GUARDED_BY and the
// thread-safety analysis proves every access holds the mutex.
struct FieldCache {
  util::Mutex mu;
  std::map<int, std::shared_ptr<const Field>> strong PFAR_GUARDED_BY(mu);
  std::map<int, std::weak_ptr<const Field>> weak PFAR_GUARDED_BY(mu);
};

}  // namespace

std::shared_ptr<const Field> shared_field(int q) {
  static FieldCache cache;
  constexpr int kStrongCacheMaxQ = 1024;

  util::MutexLock lock(cache.mu);
  if (q <= kStrongCacheMaxQ) {
    auto& slot = cache.strong[q];
    if (!slot) slot = std::make_shared<const Field>(q);
    return slot;
  }
  auto& slot = cache.weak[q];
  if (auto alive = slot.lock()) return alive;
  auto fresh = std::make_shared<const Field>(q);
  slot = fresh;
  return fresh;
}

}  // namespace pfar::gf
