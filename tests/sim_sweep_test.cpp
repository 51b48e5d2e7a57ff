// Parameterized property sweep over the cycle-level simulator: every
// combination of (q, solution, packet payload, collective mode) must be
// exactly correct, respect flow control, and stay within the analytic
// bandwidth envelope. This is the broad-coverage harness for interactions
// between features that individual tests exercise in isolation.

#include <gtest/gtest.h>

#include <tuple>

#include "core/planner.hpp"

namespace pfar {
namespace {

using SweepParam = std::tuple<int, core::Solution, int, simnet::Collective>;

class SimSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SimSweep, CorrectSafeAndWithinEnvelope) {
  const auto [q, solution, payload, mode] = GetParam();
  if (solution == core::Solution::kLowDepth && q % 2 == 0) GTEST_SKIP();
  const auto plan = core::AllreducePlanner(q).solution(solution).build();

  simnet::SimConfig cfg;
  cfg.packet_payload = payload;
  cfg.packet_header_flits = payload > 1 ? 1 : 0;
  cfg.collective = mode;

  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  const auto split = plan.split(3000);
  const auto r = sim.run(split);

  EXPECT_TRUE(r.values_correct);
  EXPECT_EQ(r.total_elements, 3000);
  EXPECT_LE(r.max_vc_occupancy, cfg.vc_credits);
  // Aggregate bandwidth can never exceed the applicable envelope scaled by
  // framing efficiency (2% numeric headroom). For full Allreduce that is
  // Algorithm 1's aggregate. Reduce-only/broadcast-only use just one
  // direction of every link, and Lemma 7.8 puts the two low-depth trees
  // sharing a link on OPPOSITE reduction directions — so half-collectives
  // can legitimately reach num_trees * B, double the Allreduce envelope.
  const double efficiency =
      static_cast<double>(payload) / (payload + cfg.packet_header_flits);
  const double envelope =
      (mode == simnet::Collective::kAllreduce
           ? plan.aggregate_bandwidth()
           : static_cast<double>(plan.num_trees())) *
      efficiency;
  EXPECT_LE(r.aggregate_bandwidth, envelope * 1.02);
  EXPECT_GT(r.aggregate_bandwidth, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SimSweep,
    ::testing::Combine(
        ::testing::Values(3, 4, 5, 7),
        ::testing::Values(core::Solution::kLowDepth,
                          core::Solution::kEdgeDisjoint,
                          core::Solution::kSingleTree),
        ::testing::Values(1, 4),
        ::testing::Values(simnet::Collective::kAllreduce,
                          simnet::Collective::kReduce,
                          simnet::Collective::kBroadcast)));

}  // namespace
}  // namespace pfar
