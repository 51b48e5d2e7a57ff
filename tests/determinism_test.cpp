// Determinism guarantees of the performance machinery added for the sweep
// engine:
//
//  * core::SweepRunner produces identical result vectors no matter how
//    many worker threads execute the sweep (per-task seeding, order-stable
//    collection);
//  * the simulator's fast-forward engine reproduces the test-only reference
//    loop (tests/oracle) exactly — every SimResult field — across all
//    three collective modes and the stressful corners of the config space;
//  * both still match golden values captured from the original
//    cycle-by-cycle implementation, pinning the whole lineage.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "core/sweep_runner.hpp"
#include "oracle/expect_same_result.hpp"
#include "oracle/reference_allreduce.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/background.hpp"
#include "util/rng.hpp"

namespace {

using namespace pfar;

// --- SweepRunner ----------------------------------------------------------

std::vector<std::uint64_t> run_sweep(int threads) {
  core::SweepRunner runner(threads, /*base_seed=*/42);
  return runner.map<std::uint64_t>(24, [](const core::SweepTask& task) {
    // Mix the task seed through a private RNG: any dependence on thread
    // identity or completion order would desynchronize the streams.
    util::Rng rng(task.seed);
    std::uint64_t acc = static_cast<std::uint64_t>(task.index);
    for (int i = 0; i < 1000; ++i) acc = acc * 31 + rng.next();
    return acc;
  });
}

TEST(SweepRunner, ThreadCountDoesNotChangeResults) {
  const auto serial = run_sweep(1);
  ASSERT_EQ(serial.size(), 24u);
  for (int threads : {2, 4, 8}) {
    EXPECT_EQ(run_sweep(threads), serial) << "threads=" << threads;
  }
}

TEST(SweepRunner, TaskSeedsAreDistinctAndIndexDerived) {
  const std::uint64_t a0 = core::SweepRunner::task_seed(7, 0);
  const std::uint64_t a1 = core::SweepRunner::task_seed(7, 1);
  const std::uint64_t b0 = core::SweepRunner::task_seed(8, 0);
  EXPECT_NE(a0, a1);
  EXPECT_NE(a0, b0);
  // Pure function of (base_seed, index).
  EXPECT_EQ(a0, core::SweepRunner::task_seed(7, 0));
}

TEST(SweepRunner, PropagatesFirstTaskException) {
  core::SweepRunner runner(4);
  EXPECT_THROW(
      runner.for_each(16,
                      [](const core::SweepTask& task) {
                        if (task.index == 11) {
                          throw std::runtime_error("task 11 failed");
                        }
                      }),
      std::runtime_error);
}

// --- Fast-forward engine vs the reference oracle --------------------------

// Which implementation runs a scenario: the product simulator or the
// test-only reference loop.
enum class Loop { kProduct, kOracle };

simnet::SimResult run_loop(int q, core::Solution sol,
                           const simnet::SimConfig& cfg, long long m,
                           Loop loop = Loop::kProduct) {
  const auto plan = core::AllreducePlanner(q).solution(sol).build();
  if (loop == Loop::kOracle) {
    return oracle::run_reference_allreduce(plan.topology(), plan.trees(), cfg,
                                           plan.split(m));
  }
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  return sim.run(plan.split(m));
}

void expect_identical(int q, core::Solution sol, const simnet::SimConfig& cfg,
                      long long m) {
  oracle::expect_same_result(
      run_loop(q, sol, cfg, m), run_loop(q, sol, cfg, m, Loop::kOracle),
      "q=" + std::to_string(q) + " " + core::to_string(sol));
}

TEST(FastForwardEngine, MatchesReferenceAcrossSolutionsAndFraming) {
  for (const int payload : {1, 4}) {
    simnet::SimConfig cfg;
    cfg.packet_payload = payload;
    cfg.packet_header_flits = payload == 1 ? 0 : 1;
    expect_identical(3, core::Solution::kLowDepth, cfg, 600);
    expect_identical(3, core::Solution::kEdgeDisjoint, cfg, 600);
    expect_identical(5, core::Solution::kSingleTree, cfg, 600);
  }
}

TEST(FastForwardEngine, MatchesReferenceInStressCorners) {
  {
    simnet::SimConfig cfg;  // tight credits, long latency: stall-heavy
    cfg.vc_credits = 2;
    cfg.link_latency = 8;
    expect_identical(5, core::Solution::kLowDepth, cfg, 400);
  }
  {
    simnet::SimConfig cfg;  // deep buffers, zero latency
    cfg.vc_credits = 32;
    cfg.link_latency = 0;
    expect_identical(5, core::Solution::kEdgeDisjoint, cfg, 400);
  }
  {
    simnet::SimConfig cfg;  // framing
    cfg.packet_payload = 8;
    cfg.packet_header_flits = 2;
    expect_identical(7, core::Solution::kLowDepth, cfg, 800);
  }
}

// --- Background traffic (docs/congestion_adaptation.md) -------------------

// A BackgroundTraffic block with load == 0 must be a true no-op: the run is
// bit-identical to one whose config never mentioned background traffic at
// all, on the product and the oracle. This is the differential that lets
// the quiet goldens above keep pinning the lineage.
TEST(BackgroundTraffic, ZeroLoadIsBitIdenticalToQuiet) {
  for (const Loop loop : {Loop::kProduct, Loop::kOracle}) {
    const simnet::SimConfig quiet;
    simnet::SimConfig zero = quiet;
    zero.background.pattern = simnet::TrafficPattern::kPermutation;
    zero.background.load = 0.0;  // configured but inactive
    zero.background.seed = 99;
    const auto a = run_loop(5, core::Solution::kLowDepth, quiet, 800, loop);
    const auto b = run_loop(5, core::Solution::kLowDepth, zero, 800, loop);
    oracle::expect_same_result(a, b, "zero load");
    EXPECT_EQ(b.background_flits, 0);
    EXPECT_EQ(b.background_packets, 0);
    for (long long f : b.link_bg_flits) EXPECT_EQ(f, 0);
  }
}

// Under live background traffic the fast-forward engine must still replay
// the reference oracle exactly — the background drains are integer-rational
// (ppm accumulators) and the idle-jump wake points account for them.
TEST(BackgroundTraffic, FastMatchesReferenceAcrossPatternsAndLoads) {
  for (const auto pattern :
       {simnet::TrafficPattern::kUniform, simnet::TrafficPattern::kPermutation,
        simnet::TrafficPattern::kHotspot}) {
    for (const double load : {0.1, 0.25, 0.5}) {
      simnet::SimConfig cfg;
      cfg.background.pattern = pattern;
      cfg.background.load = load;
      cfg.background.seed = 7;
      expect_identical(5, core::Solution::kLowDepth, cfg, 600);
      expect_identical(5, core::Solution::kEdgeDisjoint, cfg, 600);
    }
  }
}

// Background traffic composes with the stressful config corners the quiet
// differential matrix covers.
TEST(BackgroundTraffic, FastMatchesReferenceInStressCorners) {
  {
    simnet::SimConfig cfg;  // tight credits + long latency + hotspot bg
    cfg.vc_credits = 2;
    cfg.link_latency = 8;
    cfg.background.pattern = simnet::TrafficPattern::kHotspot;
    cfg.background.load = 0.4;
    expect_identical(5, core::Solution::kLowDepth, cfg, 400);
  }
  {
    simnet::SimConfig cfg;  // permutation bg + framing
    cfg.packet_payload = 4;
    cfg.packet_header_flits = 1;
    cfg.background.pattern = simnet::TrafficPattern::kPermutation;
    cfg.background.load = 0.5;
    cfg.background.seed = 3;
    expect_identical(7, core::Solution::kEdgeDisjoint, cfg, 800);
  }
}

// The kPermutation destination map is pinned for one seed: background
// rates route it, and it draws from the caller's generator, so the draws
// after it are pinned too.
TEST(BackgroundTraffic, PatternPermutationIsPinnedForOneSeed) {
  util::Rng rng(7);
  EXPECT_EQ(simnet::pattern_permutation(13, rng),
            (std::vector<int>{12, 0, 11, 8, 3, 9, 7, 1, 5, 4, 11, 2, 6}));
  EXPECT_EQ(rng.next(), 17320858093524191697ull);
}

// --- Golden values from the original implementation -----------------------

std::uint64_t fnv(const std::vector<long long>& v) {
  std::uint64_t h = 1469598103934665603ULL;
  for (long long x : v) {
    h ^= static_cast<std::uint64_t>(x);
    h *= 1099511628211ULL;
  }
  return h;
}

struct Golden {
  const char* name;
  int q;
  core::Solution sol;
  int payload;
  int header;
  long long m;
  // Expected values captured from the pre-fast-forward implementation.
  long long cycles;
  int occupancy;
  std::uint64_t link_flits_hash;
  std::uint64_t finish_hash;
  std::uint64_t first_hash;
};

TEST(FastForwardEngine, MatchesGoldenValuesFromSeedImplementation) {
  const Golden goldens[] = {
      {"q3_ld_allreduce", 3, core::Solution::kLowDepth, 1, 0, 600, 416, 9,
       16968771372679624195ULL, 9110279880017709470ULL,
       1228718878961412657ULL},
      {"q3_ed_allreduce", 3, core::Solution::kEdgeDisjoint, 1, 0, 600, 348,
       1, 2242625126560894851ULL, 10962671891925027081ULL,
       11149429439497907611ULL},
      {"q5_st_allreduce_p4", 5, core::Solution::kSingleTree, 4, 1, 600, 762,
       1, 13528660941121534451ULL, 4952590511094989390ULL,
       4953172152746313009ULL},
  };
  for (const auto& g : goldens) {
    simnet::SimConfig cfg;
    cfg.packet_payload = g.payload;
    cfg.packet_header_flits = g.header;
    for (const Loop loop : {Loop::kProduct, Loop::kOracle}) {
      const auto r = run_loop(g.q, g.sol, cfg, g.m, loop);
      EXPECT_EQ(r.cycles, g.cycles) << g.name;
      EXPECT_TRUE(r.values_correct) << g.name;
      EXPECT_EQ(r.max_vc_occupancy, g.occupancy) << g.name;
      EXPECT_EQ(fnv(r.link_flits), g.link_flits_hash) << g.name;
      EXPECT_EQ(fnv(r.tree_finish_cycle), g.finish_hash) << g.name;
      EXPECT_EQ(fnv(r.tree_first_delivery), g.first_hash) << g.name;
    }
  }
}

// --- Simulator sweeps under the runner (thread-safety of simulate()) ------

TEST(SweepRunner, ParallelSimulationsMatchSerial) {
  const auto plan = core::AllreducePlanner(3).build();
  const auto run_with = [&](int threads) {
    core::SweepRunner runner(threads);
    return runner.map<long long>(6, [&](const core::SweepTask& task) {
      simnet::SimConfig cfg;
      cfg.packet_payload = 1 + task.index % 3;
      cfg.vc_credits = 4 + 4 * (task.index / 3);
      const auto res = plan.simulate(400, cfg);
      EXPECT_TRUE(res.sim.values_correct);
      return res.sim.cycles;
    });
  };
  EXPECT_EQ(run_with(4), run_with(1));
}

}  // namespace
