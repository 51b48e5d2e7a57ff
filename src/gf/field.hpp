#pragma once

#include <cstdint>
#include <memory>
#include <vector>

namespace pfar::gf {

/// An element of a finite field F_q, q = p^a, encoded as an integer in
/// [0, q): the base-p digit expansion of the element's coordinate vector
/// over F_p. Digit i is the coefficient of x^i in the polynomial
/// representative, so 0 is the field zero and 1 the field one for every q.
using Elem = int;

/// Finite field F_q for a prime power q = p^a (2 <= q <= 4096).
///
/// For a >= 2 the field is realized as F_p[x] / (f) where f is the
/// lexicographically smallest monic degree-a polynomial over F_p whose root
/// x is a *primitive* element (generator of F_q^*); such f is automatically
/// irreducible. Arithmetic is table-based (q x q add/mul tables plus
/// negation and inverse tables), so every operation is O(1).
///
/// This is the substrate for both ER_q constructions in the paper (Section
/// 6): the projective-geometry construction works directly over F_q, and
/// the Singer construction needs the cubic extension F_{q^3} built on top
/// of this class (see CubicExtension).
class Field {
 public:
  explicit Field(int q);

  int q() const { return q_; }
  int p() const { return p_; }
  /// Extension degree a (q = p^a).
  int degree() const { return a_; }

  Elem zero() const { return 0; }
  Elem one() const { return 1; }

  Elem add(Elem x, Elem y) const { return add_[static_cast<std::size_t>(idx(x, y))]; }
  Elem sub(Elem x, Elem y) const { return add_[static_cast<std::size_t>(idx(x, neg_[static_cast<std::size_t>(y)]))]; }
  Elem neg(Elem x) const { return neg_[static_cast<std::size_t>(x)]; }
  Elem mul(Elem x, Elem y) const { return mul_[static_cast<std::size_t>(idx(x, y))]; }
  /// Multiplicative inverse; x must be non-zero.
  Elem inv(Elem x) const;
  Elem div(Elem x, Elem y) const { return mul(x, inv(y)); }

  /// A fixed generator g of the multiplicative group F_q^* (g^1; for q = 2
  /// the group is {1} and exp_ holds the single entry g^0 = 1).
  Elem generator() const { return exp_[q_ > 2 ? 1 : 0]; }

  /// Monic modulus polynomial f used for the extension, as coefficient list
  /// c_0..c_a (c_a == 1). Empty when q is prime (a == 1).
  const std::vector<int>& modulus() const { return modulus_; }

  bool is_valid(Elem x) const { return x >= 0 && x < q_; }

 private:
  int idx(Elem x, Elem y) const { return x * q_ + y; }

  int q_ = 0, p_ = 0, a_ = 0;
  std::vector<Elem> add_;   // q*q
  std::vector<Elem> mul_;   // q*q
  std::vector<Elem> neg_;   // q
  std::vector<Elem> inv_;   // q (inv_[0] unused)
  std::vector<Elem> exp_;   // q-1 entries: exp_[i] = g^i
  std::vector<int> modulus_;
};

/// Process-wide memoized field table, keyed by q: repeated constructions in
/// benches and sweeps reuse one immutable Field instead of re-running the
/// primitive-root / primitive-polynomial searches and table builds per
/// instance. Thread-safe. Fields with small tables (q <= 1024) are cached
/// for the process lifetime; larger ones are held weakly and rebuilt only
/// after every user has released them.
std::shared_ptr<const Field> shared_field(int q);

}  // namespace pfar::gf
