#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "oracle/reference_math.hpp"
#include "util/args.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"

namespace pfar::util {
namespace {

TEST(NumericTest, IsPrimePower) {
  int p = 0, a = 0;
  EXPECT_TRUE(is_prime_power(2, &p, &a));
  EXPECT_EQ(p, 2);
  EXPECT_EQ(a, 1);
  EXPECT_TRUE(is_prime_power(8, &p, &a));
  EXPECT_EQ(p, 2);
  EXPECT_EQ(a, 3);
  EXPECT_TRUE(is_prime_power(81, &p, &a));
  EXPECT_EQ(p, 3);
  EXPECT_EQ(a, 4);
  EXPECT_TRUE(is_prime_power(125, &p, &a));
  EXPECT_EQ(p, 5);
  EXPECT_EQ(a, 3);
  EXPECT_FALSE(is_prime_power(1));
  EXPECT_FALSE(is_prime_power(6));
  EXPECT_FALSE(is_prime_power(12));
  EXPECT_FALSE(is_prime_power(100));
}

TEST(NumericTest, PrimePowersInRange) {
  const auto pp = prime_powers_in(2, 32);
  const std::vector<int> expected{2,  3,  4,  5,  7,  8,  9,  11, 13,
                                  16, 17, 19, 23, 25, 27, 29, 31, 32};
  EXPECT_EQ(pp, expected);
}

TEST(NumericTest, Gcd) {
  EXPECT_EQ(gcd_ll(12, 18), 6);
  EXPECT_EQ(gcd_ll(-12, 18), 6);
  EXPECT_EQ(gcd_ll(0, 5), 5);
  EXPECT_EQ(gcd_ll(7, 13), 1);
}

TEST(NumericTest, Totient) {
  EXPECT_EQ(oracle::totient(1), 1);
  EXPECT_EQ(oracle::totient(13), 12);
  EXPECT_EQ(oracle::totient(21), 12);
  EXPECT_EQ(oracle::totient(100), 40);
  // phi(N) for N = q^2+q+1, cross-checked by brute force.
  for (long long n : {7LL, 13LL, 21LL, 31LL, 57LL, 133LL, 183LL}) {
    long long brute = 0;
    for (long long k = 1; k < n; ++k) {
      if (gcd_ll(k, n) == 1) ++brute;
    }
    EXPECT_EQ(oracle::totient(n), brute) << "n=" << n;
  }
}

TEST(NumericTest, ModInverse) {
  EXPECT_EQ(mod_inverse(2, 13), 7);
  EXPECT_EQ(mod_inverse(2, 21), 11);  // Lemma 6.7: (N+1)/2
  for (long long n : {13LL, 21LL, 57LL, 183LL}) {
    EXPECT_EQ(mod_inverse(2, n), (n + 1) / 2) << "n=" << n;
  }
  EXPECT_THROW(mod_inverse(3, 21), std::invalid_argument);
}

TEST(NumericTest, ApportionSumsToTotal) {
  const auto split = apportion(100, {1.0, 1.0, 1.0});
  EXPECT_EQ(std::accumulate(split.begin(), split.end(), 0LL), 100);
  EXPECT_EQ(split.size(), 3u);
  for (long long s : split) EXPECT_GE(s, 33);
}

TEST(NumericTest, ApportionProportional) {
  const auto split = apportion(90, {1.0, 2.0});
  EXPECT_EQ(split[0], 30);
  EXPECT_EQ(split[1], 60);
}

TEST(NumericTest, ApportionZeroTotal) {
  const auto split = apportion(0, {3.0, 1.0});
  EXPECT_EQ(split[0], 0);
  EXPECT_EQ(split[1], 0);
}

TEST(NumericTest, ApportionUnevenWeights) {
  const auto split = apportion(10, {0.5, 0.25, 0.25});
  EXPECT_EQ(std::accumulate(split.begin(), split.end(), 0LL), 10);
  EXPECT_EQ(split[0], 5);
}

TEST(RngTest, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(RngTest, NextBelowInRange) {
  Rng rng(7);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_below(10);
    EXPECT_LT(v, 10u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 10u);  // all residues hit
}

TEST(RngTest, NextDoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.next_double();
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 1.0);
  }
}

TEST(TableTest, PrintsAlignedRows) {
  Table t({"a", "bbb"});
  t.add(1, 2.5);
  t.add("x", "y");
  std::ostringstream os;
  t.print(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("2.5000"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
}

TEST(TableTest, CsvOutputQuotesSpecialCells) {
  Table t({"name", "value"});
  t.add("plain", 1);
  t.add("with,comma", 2);
  t.add("with\"quote", 3);
  std::ostringstream os;
  t.print_csv(os);
  const std::string s = os.str();
  EXPECT_NE(s.find("name,value\n"), std::string::npos);
  EXPECT_NE(s.find("plain,1\n"), std::string::npos);
  EXPECT_NE(s.find("\"with,comma\",2\n"), std::string::npos);
  EXPECT_NE(s.find("\"with\"\"quote\",3\n"), std::string::npos);
}

TEST(TableTest, RejectsArityMismatch) {
  Table t({"a", "b"});
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

// Parses a command line of string literals (argv[0] is the program name).
Args parse(std::vector<std::string> words) {
  std::vector<char*> argv;
  for (std::string& w : words) argv.push_back(w.data());
  return Args(static_cast<int>(argv.size()), argv.data());
}

TEST(ArgsTest, GetIntReadsWholeIntegers) {
  const Args args = parse({"prog", "--seed", "-5", "--reps=12", "--trace"});
  EXPECT_EQ(args.get_int("seed", 0), -5);
  EXPECT_EQ(args.get_int("reps", 0), 12);
  EXPECT_EQ(args.get_int("trace", 0), 1);  // a bare flag reads as "1"
  EXPECT_EQ(args.get_int("absent", 7), 7);
}

TEST(ArgsTest, GetIntRejectsMalformedValuesNamingTheFlag) {
  const Args args = parse({"prog", "--max-q=abc", "--seed", "12x",
                           "--reps=", "--big=99999999999999999999"});
  for (const char* flag : {"max-q", "seed", "reps", "big"}) {
    try {
      args.get_int(flag, 0);
      ADD_FAILURE() << "--" << flag << " parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + flag),
                std::string::npos)
          << e.what();
    }
  }
}

// PFAR_THREADS is read as strictly as an integer flag: unset means the
// hardware width; a set value must be a whole decimal integer >= 1.
TEST(ThreadsTest, DefaultThreadsParsesPfarThreadsStrictly) {
  const char* saved = std::getenv("PFAR_THREADS");
  const bool was_set = saved != nullptr;
  const std::string restore = was_set ? saved : "";

  ::unsetenv("PFAR_THREADS");
  EXPECT_EQ(default_threads(),
            std::max(1, static_cast<int>(std::thread::hardware_concurrency())));
  ::setenv("PFAR_THREADS", "5", 1);
  EXPECT_EQ(default_threads(), 5);
  for (const char* bad :
       {"4x", "abc", "0", "-2", "", " 3", "+3", "99999999999"}) {
    ::setenv("PFAR_THREADS", bad, 1);
    try {
      default_threads();
      ADD_FAILURE() << "PFAR_THREADS='" << bad << "' parsed";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("PFAR_THREADS"), std::string::npos)
          << e.what();
    }
  }

  if (was_set) {
    ::setenv("PFAR_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("PFAR_THREADS");
  }
}

}  // namespace
}  // namespace pfar::util
