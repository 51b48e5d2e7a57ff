// The steady-period jump of the cycle loop (docs/simulation_engine.md,
// "Steady periods are skipped in one jump"). Every case runs long enough
// for the pipeline to settle, so the loop confirms a repeating control
// state and skips whole periods in closed form; the result must still be
// bit-identical to the test-only reference loop (tests/oracle), which
// never jumps. The product runs twice, with and without a Recorder, and
// the traced run's `sim.skipped_cycles` shows whether the jump fired.
// Runs with background traffic must not jump at all.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/planner.hpp"
#include "graph/graph.hpp"
#include "obsv/recorder.hpp"
#include "oracle/expect_same_result.hpp"
#include "oracle/reference_allreduce.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"

namespace {

using namespace pfar;

core::AllreducePlan make_plan(int q, core::Solution sol) {
  return core::AllreducePlanner(q).solution(sol).build();
}

simnet::SimResult run_product(const core::AllreducePlan& plan,
                              const simnet::SimConfig& cfg, long long m) {
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  return sim.run(plan.split(m));
}

// The product, traced and untraced, against the oracle. Returns the traced
// run's skipped cycles.
long long expect_exact(const core::AllreducePlan& plan,
                       const simnet::SimConfig& cfg, long long m,
                       const std::string& label) {
  const simnet::SimResult reference = oracle::run_reference_allreduce(
      plan.topology(), plan.trees(), cfg, plan.split(m));
  obsv::Recorder rec;
  simnet::SimConfig traced = cfg;
  traced.recorder = &rec;
  oracle::expect_same_result(run_product(plan, traced, m), reference,
                             label + " traced");
  simnet::SimConfig quiet = cfg;
  quiet.recorder = nullptr;
  oracle::expect_same_result(run_product(plan, quiet, m), reference, label);
  return rec.metrics.counter("sim.skipped_cycles");
}

// Exact against the oracle, and the jump fired.
void expect_jumps(const core::AllreducePlan& plan,
                  const simnet::SimConfig& cfg, long long m,
                  const std::string& label) {
  const long long skipped = expect_exact(plan, cfg, m, label);
  EXPECT_GT(skipped, 0) << label << ": the steady-period jump never fired";
}

TEST(SteadyPeriod, JumpsOnEverySolutionAndRadix) {
  for (const int q : {5, 7}) {
    for (const auto sol :
         {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint,
          core::Solution::kSingleTree}) {
      expect_jumps(make_plan(q, sol), simnet::SimConfig{}, 4000,
                   "q=" + std::to_string(q) + " " + core::to_string(sol));
    }
  }
}

TEST(SteadyPeriod, JumpsWithMultiElementPacketsAndPartialTail) {
  const auto plan = make_plan(5, core::Solution::kLowDepth);
  const long long m = 6001;
  simnet::SimConfig cfg;
  cfg.packet_payload = 4;
  cfg.packet_header_flits = 1;
  bool partial = false;
  for (const long long share : plan.split(m)) partial |= share % 4 != 0;
  ASSERT_TRUE(partial) << "no tree ends on a partial packet";
  expect_jumps(plan, cfg, m, "payload=4 header=1");
}

TEST(SteadyPeriod, JumpsWhenThePeriodSpansSeveralCycles) {
  const auto plan = make_plan(5, core::Solution::kLowDepth);
  {
    simnet::SimConfig cfg;  // five-flit packets, no wire delay
    cfg.packet_payload = 3;
    cfg.packet_header_flits = 2;
    cfg.link_latency = 0;
    expect_jumps(plan, cfg, 8000, "payload=3 header=2 latency=0");
  }
  {
    simnet::SimConfig cfg;  // credit-starved: two packets per round trip
    cfg.vc_credits = 2;
    cfg.link_latency = 8;
    expect_jumps(plan, cfg, 4000, "credits=2 latency=8");
  }
}

// The tree-0 uplink of the smallest non-root vertex.
graph::Edge tree0_link(const core::AllreducePlan& plan) {
  const auto& parents = plan.trees()[0].parents();
  for (int v = 0; v < static_cast<int>(parents.size()); ++v) {
    if (parents[static_cast<std::size_t>(v)] >= 0) {
      return graph::Edge(v, parents[static_cast<std::size_t>(v)]);
    }
  }
  return graph::Edge(0, 0);
}

// A link fails in the middle of a periodic stretch: jumps before it stop
// short of the event, the hit tree is canceled by its progress timeout,
// and the surviving trees settle again and keep jumping. Skipping more
// cycles than the fault cycle proves jumps after the event.
TEST(SteadyPeriod, KeepsJumpingAroundLinkFaults) {
  const auto plan = make_plan(5, core::Solution::kLowDepth);
  const graph::Edge e = tree0_link(plan);
  const long long fault_cycle = 1500;
  simnet::SimConfig base;
  base.progress_timeout = 300;
  {
    simnet::SimConfig cfg = base;
    cfg.faults.events.push_back(
        {fault_cycle, e.u, e.v, simnet::FaultType::kLinkDown});
    const long long skipped = expect_exact(plan, cfg, 12000, "link down");
    EXPECT_GT(skipped, fault_cycle);
    EXPECT_EQ(run_product(plan, cfg, 12000).tree_failed[0], 1);
  }
  {
    simnet::SimConfig cfg = base;
    cfg.faults.events.push_back(
        {fault_cycle, e.u, e.v, simnet::FaultType::kLinkDown});
    cfg.faults.events.push_back(
        {fault_cycle + 100, e.u, e.v, simnet::FaultType::kLinkUp});
    const long long skipped = expect_exact(plan, cfg, 12000, "down/up");
    EXPECT_GT(skipped, fault_cycle);
  }
}

// Background drains follow absolute time, so those runs simulate every
// busy cycle.
TEST(SteadyPeriod, BackgroundRunsNeverJump) {
  const auto plan = make_plan(5, core::Solution::kLowDepth);
  simnet::SimConfig cfg;
  cfg.background.load = 0.2;
  EXPECT_EQ(expect_exact(plan, cfg, 4000, "background"), 0);
}

// Two copies of one tree put two VCs on every tree link. They first
// become ready in the same cycle, so the order of a link's VCs breaks the
// first round-robin tie and decides which copy leads from then on; with
// two credits per VC the lead shows in the per-tree first-delivery and
// finish cycles. Reversing each link's VC order in the product fails this
// differential, and the jump must carry the round-robin pointers through.
TEST(SteadyPeriod, ArbitrationOrderIsResultVisible) {
  const auto plan = make_plan(5, core::Solution::kLowDepth);
  const auto& tree = plan.trees()[0];
  const std::vector<trees::SpanningTree> twins{tree, tree};
  simnet::SimConfig cfg;
  cfg.vc_credits = 2;
  const std::vector<long long> m{3000, 3000};
  const auto reference =
      oracle::run_reference_allreduce(plan.topology(), twins, cfg, m);
  obsv::Recorder rec;
  simnet::SimConfig traced = cfg;
  traced.recorder = &rec;
  const auto product =
      simnet::AllreduceSimulator(plan.topology(), twins, traced).run(m);
  oracle::expect_same_result(product, reference, "twin trees");
  EXPECT_EQ(product.max_vcs_per_link, 2);
  EXPECT_NE(product.tree_finish_cycle[0], product.tree_finish_cycle[1]);
  EXPECT_GT(rec.metrics.counter("sim.skipped_cycles"), 0);
}

}  // namespace
