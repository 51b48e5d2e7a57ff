// Determinism of intra-run parallel sharding (SimConfig::shard_threads,
// docs/simulation_engine.md): the fast-forward engine partitions the tree
// set into link-disjoint groups and simulates them on a util::ThreadPool,
// and the merged SimResult must be bit-identical to the serial run for
// every thread count — healthy and under fault scripts alike. The suite
// name contains "Determinism" on purpose: CI's TSan job runs it to prove
// the sharded path is race-free.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "oracle/expect_same_result.hpp"
#include "oracle/reference_allreduce.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"

namespace {

using namespace pfar;

simnet::SimResult run_sharded(int q, core::Solution sol, simnet::SimConfig cfg,
                              long long m, int shard_threads) {
  cfg.shard_threads = shard_threads;
  const auto plan = core::AllreducePlanner(q).solution(sol).build();
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  return sim.run(plan.split(m));
}

void expect_thread_invariant(int q, core::Solution sol,
                             const simnet::SimConfig& cfg, long long m) {
  const auto serial = run_sharded(q, sol, cfg, m, 1);
  for (int threads : {2, 4, 8}) {
    oracle::expect_same_result(run_sharded(q, sol, cfg, m, threads), serial,
                               "threads=" + std::to_string(threads));
  }
}

// Edge-disjoint Hamiltonian trees share no physical link, so every tree is
// its own shard group — the strongest fan-out the partitioner produces.
TEST(ShardedDeterminism, EdgeDisjointHealthyBitIdentical) {
  simnet::SimConfig cfg;
  expect_thread_invariant(7, core::Solution::kEdgeDisjoint, cfg, 2000);
  cfg.packet_payload = 4;
  cfg.packet_header_flits = 1;
  expect_thread_invariant(5, core::Solution::kEdgeDisjoint, cfg, 1000);
}

// Low-depth trees overlap (congestion 2); the union-find partitioner must
// merge overlapping trees into one group and still reproduce the serial
// run no matter how the remaining groups land on threads.
TEST(ShardedDeterminism, LowDepthHealthyBitIdentical) {
  simnet::SimConfig cfg;
  expect_thread_invariant(5, core::Solution::kLowDepth, cfg, 1000);
  cfg.packet_payload = 3;
  cfg.packet_header_flits = 1;
  expect_thread_invariant(5, core::Solution::kLowDepth, cfg, 1000);
}

// Sharding must also reproduce the *unsharded* result, not just be
// self-consistent, and match the reference oracle.
TEST(ShardedDeterminism, MatchesUnshardedAndReference) {
  simnet::SimConfig cfg;
  const auto sharded = run_sharded(7, core::Solution::kEdgeDisjoint, cfg,
                                   2000, 4);
  const auto serial = run_sharded(7, core::Solution::kEdgeDisjoint, cfg,
                                  2000, 1);
  oracle::expect_same_result(sharded, serial, "threads=4");

  const auto plan = core::AllreducePlanner(7)
                        .solution(core::Solution::kEdgeDisjoint)
                        .build();
  oracle::expect_same_result(
      sharded,
      oracle::run_reference_allreduce(plan.topology(), plan.trees(), cfg,
                                      plan.split(2000)),
      "threads=4 vs oracle");
}

// Scripted link-down/link-up faults: every shard group receives the full
// script (events on foreign links are no-ops for it), so losses, poisoned
// VCs, per-tree failure flags and links_down must all merge back
// bit-identically.
TEST(ShardedDeterminism, FaultScriptBitIdentical) {
  const auto plan =
      core::AllreducePlanner(7).solution(core::Solution::kEdgeDisjoint).build();
  simnet::SimConfig cfg;
  cfg.progress_timeout = 1500;  // let trees severed by the fault fail fast
  // Down an uplink tree 0 actually uses mid-collective, restore it later,
  // and permanently kill a link used by a different tree.
  const auto& t0 = plan.trees()[0].parents();
  for (int v = 0; v < static_cast<int>(t0.size()); ++v) {
    if (t0[static_cast<std::size_t>(v)] >= 0) {
      cfg.faults.events.push_back(
          {120, v, t0[static_cast<std::size_t>(v)], simnet::FaultType::kLinkDown});
      cfg.faults.events.push_back(
          {400, v, t0[static_cast<std::size_t>(v)], simnet::FaultType::kLinkUp});
      break;
    }
  }
  const auto& t1 = plan.trees()[1].parents();
  for (int v = 0; v < static_cast<int>(t1.size()); ++v) {
    if (t1[static_cast<std::size_t>(v)] >= 0) {
      cfg.faults.events.push_back(
          {200, v, t1[static_cast<std::size_t>(v)], simnet::FaultType::kLinkDown});
      break;
    }
  }
  expect_thread_invariant(7, core::Solution::kEdgeDisjoint, cfg, 2000);
}

// A sharded run that fails throws exactly what the serial run throws:
// the serial cycle, not the failing group's own clock.
TEST(ShardedDeterminism, DeadlockReportsTheSerialCycle) {
  const auto plan =
      core::AllreducePlanner(7).solution(core::Solution::kEdgeDisjoint).build();
  simnet::SimConfig cfg;
  cfg.stall_limit = 300;
  const auto& t0 = plan.trees()[0].parents();
  for (int v = 0; v < static_cast<int>(t0.size()); ++v) {
    if (t0[static_cast<std::size_t>(v)] >= 0) {
      cfg.faults.events.push_back({100, v, t0[static_cast<std::size_t>(v)],
                                   simnet::FaultType::kLinkDown});
      break;
    }
  }
  const auto message = [&](const simnet::SimConfig& c, int threads) {
    try {
      run_sharded(7, core::Solution::kEdgeDisjoint, c, 20000, threads);
    } catch (const std::runtime_error& ex) {
      return std::string(ex.what());
    }
    return std::string("no exception");
  };
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(message(cfg, threads),
              "AllreduceSimulator: deadlock detected at cycle 5524")
        << "threads=" << threads;
  }
  // The same run under a cycle limit that falls before the deadlock.
  cfg.max_cycles = 5000;
  for (int threads : {1, 2, 4}) {
    EXPECT_EQ(message(cfg, threads), "AllreduceSimulator: cycle limit exceeded")
        << "threads=" << threads;
  }
}

// A group that stalls past stall_limit on its own clock need not fail the
// serial run: other trees keep the run alive until a link-up revives it.
// The sharded run must then return the serial result, not throw.
TEST(ShardedDeterminism, StalledGroupRevivedByLinkUpMatchesSerial) {
  const auto plan =
      core::AllreducePlanner(7).solution(core::Solution::kEdgeDisjoint).build();
  simnet::SimConfig cfg;
  cfg.stall_limit = 300;
  const auto& t0 = plan.trees()[0].parents();
  for (int v = 0; v < static_cast<int>(t0.size()); ++v) {
    const int p = t0[static_cast<std::size_t>(v)];
    if (p < 0) continue;
    // Down before anything is in flight, so the stall is loss-free.
    cfg.faults.events = {{0, v, p, simnet::FaultType::kLinkDown},
                         {1000, v, p, simnet::FaultType::kLinkUp}};
    break;
  }
  expect_thread_invariant(7, core::Solution::kEdgeDisjoint, cfg, 20000);
}

// shard_threads = 0 means "use the pool's default width"; it must take the
// sharded path and still match serial.
TEST(ShardedDeterminism, DefaultThreadWidthBitIdentical) {
  simnet::SimConfig cfg;
  const auto serial = run_sharded(5, core::Solution::kEdgeDisjoint, cfg,
                                  1000, 1);
  oracle::expect_same_result(
      run_sharded(5, core::Solution::kEdgeDisjoint, cfg, 1000, 0), serial,
      "threads=0");
}

}  // namespace
