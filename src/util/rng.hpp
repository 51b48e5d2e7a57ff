#pragma once

#include <cstdint>

namespace pfar::util {

/// SplitMix64 (Steele, Lea & Flood, OOPSLA 2014): the output of the
/// generator whose state was `x` before its step. A bijective,
/// well-spread 64-bit hash behind Rng's seeding and SweepRunner's task
/// seeds.
constexpr std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic 64-bit PRNG (xoshiro256**). All randomized components in
/// this library (e.g. the random maximal-independent-set selector from
/// Section 7.3 of the paper) take an explicit Rng so experiments are
/// reproducible run-to-run.
class Rng {
 public:
  /// Seeds the four-word state from a single seed via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    // Four SplitMix64 steps: a well-mixed, non-zero state.
    for (auto& word : state_) {
      word = splitmix64(seed);
      seed += 0x9e3779b97f4a7c15ULL;
    }
  }

  /// Next raw 64-bit value.
  std::uint64_t next() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform integer in [0, bound). bound must be > 0.
  std::uint64_t next_below(std::uint64_t bound) {
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t threshold = -bound % bound;
    for (;;) {
      const std::uint64_t r = next();
      if (r >= threshold) return r % bound;
    }
  }

  /// Uniform double in [0, 1).
  double next_double() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

 private:
  static std::uint64_t rotl(std::uint64_t x, int k) {
    return (x << k) | (x >> (64 - k));
  }

  std::uint64_t state_[4];
};

}  // namespace pfar::util
