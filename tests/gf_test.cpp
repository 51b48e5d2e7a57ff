#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "gf/cubic_extension.hpp"
#include "gf/field.hpp"
#include "oracle/reference_math.hpp"

namespace pfar::gf {
namespace {

// Field axioms, exhaustively for small q and spot-checked for larger q.
class FieldAxioms : public ::testing::TestWithParam<int> {};

TEST_P(FieldAxioms, AdditiveGroup) {
  const Field f(GetParam());
  const int q = f.q();
  for (Elem x = 0; x < q; ++x) {
    EXPECT_EQ(f.add(x, 0), x);
    EXPECT_EQ(f.add(x, f.neg(x)), 0);
    for (Elem y = 0; y < q; ++y) {
      EXPECT_EQ(f.add(x, y), f.add(y, x));
    }
  }
}

TEST_P(FieldAxioms, MultiplicativeGroup) {
  const Field f(GetParam());
  const int q = f.q();
  for (Elem x = 1; x < q; ++x) {
    EXPECT_EQ(f.mul(x, 1), x);
    EXPECT_EQ(f.mul(x, f.inv(x)), 1) << "q=" << q << " x=" << x;
    for (Elem y = 0; y < q; ++y) {
      EXPECT_EQ(f.mul(x, y), f.mul(y, x));
    }
  }
  EXPECT_THROW(f.inv(0), std::domain_error);
}

TEST_P(FieldAxioms, Associativity) {
  const Field f(GetParam());
  const int q = f.q();
  // Full cubic loop is fine for q <= 16; sample beyond that.
  const int stride = q <= 16 ? 1 : q / 11;
  for (Elem x = 0; x < q; x += stride) {
    for (Elem y = 0; y < q; y += stride) {
      for (Elem z = 0; z < q; z += stride) {
        EXPECT_EQ(f.add(f.add(x, y), z), f.add(x, f.add(y, z)));
        EXPECT_EQ(f.mul(f.mul(x, y), z), f.mul(x, f.mul(y, z)));
        EXPECT_EQ(f.mul(x, f.add(y, z)), f.add(f.mul(x, y), f.mul(x, z)));
      }
    }
  }
}

TEST_P(FieldAxioms, ExpLogConsistency) {
  // The exp/log tables the multiplication table is built from make
  // generator() a generator: its q-1 powers are distinct and non-zero.
  const Field f(GetParam());
  const int q = f.q();
  std::vector<char> seen(static_cast<std::size_t>(q), 0);
  Elem v = 1;
  for (int e = 0; e < q - 1; ++e) {
    EXPECT_NE(v, 0);
    EXPECT_FALSE(seen[static_cast<std::size_t>(v)]);
    seen[static_cast<std::size_t>(v)] = 1;
    v = f.mul(v, f.generator());
  }
  EXPECT_EQ(v, 1);
}

TEST_P(FieldAxioms, FrobeniusIsAdditive) {
  // In characteristic p, (x+y)^p == x^p + y^p.
  const Field f(GetParam());
  const int q = f.q();
  const int p = f.p();
  for (Elem x = 0; x < q; ++x) {
    for (Elem y = 0; y < q; ++y) {
      EXPECT_EQ(oracle::field_pow(f, f.add(x, y), p),
                f.add(oracle::field_pow(f, x, p), oracle::field_pow(f, y, p)));
    }
  }
}

TEST_P(FieldAxioms, PowMatchesRepeatedMul) {
  const Field f(GetParam());
  const int q = f.q();
  for (Elem x = 1; x < q; ++x) {
    Elem acc = 1;
    for (int e = 0; e <= 5; ++e) {
      EXPECT_EQ(oracle::field_pow(f, x, e), acc);
      acc = f.mul(acc, x);
    }
    // Fermat: x^(q-1) == 1.
    EXPECT_EQ(oracle::field_pow(f, x, q - 1), 1);
  }
}

INSTANTIATE_TEST_SUITE_P(AllSmallPrimePowers, FieldAxioms,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 9, 11, 13, 16,
                                           17, 19, 23, 25, 27, 32, 49, 64, 81,
                                           121, 125, 128));

TEST(FieldTest, RejectsNonPrimePowers) {
  EXPECT_THROW(Field(1), std::invalid_argument);
  EXPECT_THROW(Field(6), std::invalid_argument);
  EXPECT_THROW(Field(12), std::invalid_argument);
  EXPECT_THROW(Field(100), std::invalid_argument);
}

TEST(FieldTest, PrimeFieldIsModularArithmetic) {
  const Field f(13);
  for (Elem x = 0; x < 13; ++x) {
    for (Elem y = 0; y < 13; ++y) {
      EXPECT_EQ(f.add(x, y), (x + y) % 13);
      EXPECT_EQ(f.mul(x, y), (x * y) % 13);
    }
  }
}

TEST(FieldTest, GeneratorOfF2IsOne) {
  // F_2^* = {1}: its exponent table has one entry, and the generator must
  // come from it rather than from past its end.
  const Field f(2);
  EXPECT_EQ(f.generator(), 1);
}

TEST(FieldTest, GF4Structure) {
  // F_4 = F_2[x]/(x^2+x+1): elements {0, 1, x, x+1} = {0, 1, 2, 3}.
  const Field f(4);
  EXPECT_EQ(f.p(), 2);
  EXPECT_EQ(f.degree(), 2);
  // x * x = x + 1 (since x^2 = x + 1), i.e. 2 * 2 == 3.
  EXPECT_EQ(f.mul(2, 2), 3);
  // x * (x+1) = x^2 + x = 1.
  EXPECT_EQ(f.mul(2, 3), 1);
  // Addition is XOR of the digit vectors in characteristic 2.
  for (Elem x = 0; x < 4; ++x) {
    for (Elem y = 0; y < 4; ++y) {
      EXPECT_EQ(f.add(x, y), x ^ y);
    }
  }
}

TEST(FieldTest, GF9ModulusIsPrimitive) {
  // Lexicographically smallest primitive quadratic over F_3 is x^2 + x + 2:
  // x^2+1 and x^2+2 either are reducible or have non-primitive root.
  const Field f(9);
  const auto& mod = f.modulus();
  ASSERT_EQ(mod.size(), 3u);
  EXPECT_EQ(mod[2], 1);  // monic
  // Root x (= element 3) must generate all 8 non-zero elements.
  std::vector<char> seen(9, 0);
  Elem cur = 1;
  for (int i = 0; i < 8; ++i) {
    EXPECT_FALSE(seen[static_cast<std::size_t>(cur)]);
    seen[static_cast<std::size_t>(cur)] = 1;
    cur = f.mul(cur, 3);
  }
  EXPECT_EQ(cur, 1);
}

class CubicExtensionTest : public ::testing::TestWithParam<int> {};

TEST_P(CubicExtensionTest, ZetaIsPrimitive) {
  const Field f(GetParam());
  const CubicExtension ext(f);
  const long long order = ext.order();
  EXPECT_EQ(order, static_cast<long long>(f.q()) * f.q() * f.q() - 1);
  // Walk all powers: must not hit 1 before the end, and each triple is
  // unique. (Uniqueness checked cheaply via count of visits.)
  long long count = 0;
  bool hit_one_early = false;
  ext.for_each_power([&](long long l, Elem c2, Elem c1, Elem c0) {
    if (l > 0 && c2 == 0 && c1 == 0 && c0 == 1) hit_one_early = true;
    ++count;
  });
  EXPECT_EQ(count, order);
  EXPECT_FALSE(hit_one_early);
}

TEST_P(CubicExtensionTest, ModulusHasNoRoots) {
  const Field f(GetParam());
  const CubicExtension ext(f);
  const auto [g0, g1, g2] = ext.modulus();
  for (Elem r = 0; r < f.q(); ++r) {
    const Elem r2 = f.mul(r, r);
    Elem v = f.mul(r2, r);
    v = f.add(v, f.mul(g2, r2));
    v = f.add(v, f.mul(g1, r));
    v = f.add(v, g0);
    EXPECT_NE(v, 0) << "root " << r;
  }
}

INSTANTIATE_TEST_SUITE_P(SmallFields, CubicExtensionTest,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 9, 11, 13));

TEST(CubicExtensionTest, KnownModulusForQ3) {
  // For q = 3 the lexicographically smallest primitive cubic is
  // x^3 + 2x + 1 (used to reproduce the paper's D = {0,1,3,9}).
  const Field f(3);
  const CubicExtension ext(f);
  const auto [g0, g1, g2] = ext.modulus();
  EXPECT_EQ(g2, 0);
  EXPECT_EQ(g1, 2);
  EXPECT_EQ(g0, 1);
}

TEST(SharedFieldTest, SameQReturnsSameInstance) {
  const auto a = shared_field(13);
  const auto b = shared_field(13);
  EXPECT_EQ(a.get(), b.get());
  EXPECT_NE(a.get(), shared_field(11).get());
}

TEST(SharedFieldTest, TablesMatchFreshField) {
  for (int q : {2, 3, 4, 7, 9, 16, 27}) {
    const auto shared = shared_field(q);
    const Field fresh(q);
    ASSERT_EQ(shared->q(), fresh.q());
    EXPECT_EQ(shared->generator(), fresh.generator());
    for (Elem a = 0; a < q; ++a) {
      for (Elem b = 0; b < q; ++b) {
        EXPECT_EQ(shared->add(a, b), fresh.add(a, b));
        EXPECT_EQ(shared->mul(a, b), fresh.mul(a, b));
      }
      if (a != 0) {
        EXPECT_EQ(shared->inv(a), fresh.inv(a));
      }
      EXPECT_EQ(shared->neg(a), fresh.neg(a));
    }
  }
}

TEST(SharedFieldTest, StrongCacheKeepsSmallFieldsAlive) {
  const Field* first = shared_field(17).get();  // temporary dropped
  EXPECT_EQ(shared_field(17).get(), first);     // still cached
}

TEST(SharedFieldTest, InvalidOrderStillThrows) {
  EXPECT_THROW(shared_field(6), std::invalid_argument);
  EXPECT_THROW(shared_field(1), std::invalid_argument);
}

TEST(SharedFieldTest, ConcurrentLookupsAgree) {
  // Hammer the cache from several threads; every thread must observe the
  // same instance per q and no data race (vetted under TSan in CI).
  constexpr int kThreads = 4;
  std::vector<std::thread> workers;
  std::vector<const Field*> seen(kThreads * 2, nullptr);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &seen] {
      seen[static_cast<std::size_t>(2 * t)] = shared_field(19).get();
      seen[static_cast<std::size_t>(2 * t + 1)] = shared_field(23).get();
    });
  }
  for (auto& w : workers) w.join();
  for (int t = 1; t < kThreads; ++t) {
    EXPECT_EQ(seen[static_cast<std::size_t>(2 * t)], seen[0]);
    EXPECT_EQ(seen[static_cast<std::size_t>(2 * t + 1)], seen[1]);
  }
}

}  // namespace
}  // namespace pfar::gf
