// Parameterized property sweep over the cycle-level simulator: every
// combination of (q, solution, packet payload, flow-control regime) must
// be exactly correct, respect flow control, and stay within the analytic
// bandwidth envelope. This is the broad-coverage harness for interactions
// between features that individual tests exercise in isolation.

#include <gtest/gtest.h>

#include <tuple>

#include "core/planner.hpp"

namespace pfar {
namespace {

// Buffering and wire timing around the defaults: tight credits and fork
// stages stall on every round trip; long wires leave the default credits
// short of the credit round trip.
enum class Regime { kDefault, kTightBuffers, kLongWires };

using SweepParam = std::tuple<int, core::Solution, int, Regime>;

class SimSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(SimSweep, CorrectSafeAndWithinEnvelope) {
  const auto [q, solution, payload, regime] = GetParam();
  if (solution == core::Solution::kLowDepth && q % 2 == 0) GTEST_SKIP();
  const auto plan = core::AllreducePlanner(q).solution(solution).build();

  simnet::SimConfig cfg;
  cfg.packet_payload = payload;
  cfg.packet_header_flits = payload > 1 ? 1 : 0;
  if (regime == Regime::kTightBuffers) {
    cfg.vc_credits = 2;
  } else if (regime == Regime::kLongWires) {
    cfg.link_latency = 12;
  }

  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  const auto split = plan.split(3000);
  const auto r = sim.run(split);

  EXPECT_TRUE(r.values_correct);
  EXPECT_EQ(r.total_elements, 3000);
  EXPECT_LE(r.max_vc_occupancy, cfg.vc_credits);
  // Aggregate bandwidth can never exceed Algorithm 1's aggregate scaled by
  // framing efficiency (2% numeric headroom).
  const double efficiency =
      static_cast<double>(payload) / (payload + cfg.packet_header_flits);
  EXPECT_LE(r.aggregate_bandwidth,
            plan.aggregate_bandwidth() * efficiency * 1.02);
  EXPECT_GT(r.aggregate_bandwidth, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, SimSweep,
    ::testing::Combine(::testing::Values(3, 4, 5, 7),
                       ::testing::Values(core::Solution::kLowDepth,
                                         core::Solution::kEdgeDisjoint,
                                         core::Solution::kSingleTree),
                       ::testing::Values(1, 4),
                       ::testing::Values(Regime::kDefault,
                                         Regime::kTightBuffers,
                                         Regime::kLongWires)));

}  // namespace
}  // namespace pfar
