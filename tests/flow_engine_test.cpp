// Differential validation of the flow-level engine tier
// (SimEngine::kFlow, docs/simulation_engine.md) against the cycle-accurate
// fast-forward engine on every cycle-feasible design point:
//
//  * structural results the flow tier computes without a fabric —
//    num_vcs, per-link / per-port VC maxima, per-link flit totals,
//    total_elements — must be *exactly* the cycle engine's;
//  * the fluid timing approximation — aggregate_bandwidth — must land
//    within tolerances pinned from a measured calibration sweep (worst
//    observed error 3.4% on drain-dominated m=2000 points, 0.4% on
//    m=20000 points; pinned at 5% / 1%);
//  * behaviors the tier cannot honor (fault scripts) are rejected loudly.

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"

namespace {

using namespace pfar;

simnet::SimResult run_engine(int q, core::Solution sol, simnet::SimConfig cfg,
                             long long m, simnet::SimEngine engine) {
  cfg.engine = engine;
  const auto plan = core::AllreducePlanner(q).solution(sol).build();
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  return sim.run(plan.split(m));
}

void expect_flow_matches_cycle(int q, core::Solution sol, long long m,
                               double bw_tolerance) {
  const simnet::SimConfig cfg;
  const auto flow = run_engine(q, sol, cfg, m, simnet::SimEngine::kFlow);
  const auto cyc = run_engine(q, sol, cfg, m, simnet::SimEngine::kFastForward);
  const std::string label = core::to_string(sol);

  // Exact structural agreement: same packets cross the same tree links.
  EXPECT_EQ(flow.total_elements, cyc.total_elements) << "q=" << q << " " << label;
  EXPECT_EQ(flow.num_vcs, cyc.num_vcs) << "q=" << q << " " << label;
  EXPECT_EQ(flow.max_vcs_per_link, cyc.max_vcs_per_link)
      << "q=" << q << " " << label;
  EXPECT_EQ(flow.max_reductions_per_input_port,
            cyc.max_reductions_per_input_port)
      << "q=" << q << " " << label;
  EXPECT_EQ(flow.link_flits, cyc.link_flits) << "q=" << q << " " << label;
  EXPECT_EQ(flow.tree_completed, cyc.tree_completed)
      << "q=" << q << " " << label;
  EXPECT_TRUE(flow.values_correct) << "q=" << q << " " << label;

  // Approximate timing agreement, pinned from the calibration sweep.
  ASSERT_GT(cyc.aggregate_bandwidth, 0.0);
  const double rel_err =
      (flow.aggregate_bandwidth - cyc.aggregate_bandwidth) /
      cyc.aggregate_bandwidth;
  EXPECT_NEAR(rel_err, 0.0, bw_tolerance)
      << "q=" << q << " " << label << " m=" << m
      << " flow=" << flow.aggregate_bandwidth
      << " cycle=" << cyc.aggregate_bandwidth;
}

// The full cycle-feasible matrix of BENCH_sim_allreduce. Drain-dominated
// small-m points carry the looser bound; steady-state points the tight one.
TEST(FlowEngine, DifferentialMatrixSmallVectors) {
  for (int q : {3, 5, 7, 9, 11}) {
    for (const auto sol :
         {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
      expect_flow_matches_cycle(q, sol, 2000, 0.05);
    }
  }
}

TEST(FlowEngine, DifferentialMatrixLargeVectors) {
  for (int q : {3, 5, 7, 9, 11}) {
    for (const auto sol :
         {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
      expect_flow_matches_cycle(q, sol, 20000, 0.01);
    }
  }
}

// Packet framing scales the fluid element rate by payload/(payload+header);
// the flit accounting already carries the headers exactly.
TEST(FlowEngine, PacketFramingCalibrates) {
  simnet::SimConfig cfg;
  cfg.packet_payload = 4;
  cfg.packet_header_flits = 2;
  const auto flow = run_engine(7, core::Solution::kEdgeDisjoint, cfg, 20000,
                               simnet::SimEngine::kFlow);
  const auto cyc = run_engine(7, core::Solution::kEdgeDisjoint, cfg, 20000,
                              simnet::SimEngine::kFastForward);
  EXPECT_EQ(flow.link_flits, cyc.link_flits);
  EXPECT_NEAR(flow.aggregate_bandwidth, cyc.aggregate_bandwidth,
              0.02 * cyc.aggregate_bandwidth);
}

// The whole point of the tier: a radix far beyond the cycle engines'
// budget. q=13 keeps the test cheap while exercising the same path the
// q>=243 bench run takes; steady state must approach Algorithm 1.
TEST(FlowEngine, LargeRadixApproachesAlgorithmOne) {
  const simnet::SimConfig cfg;
  const auto plan = core::AllreducePlanner(13)
                        .solution(core::Solution::kEdgeDisjoint)
                        .build();
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(),
                                 [] {
                                   simnet::SimConfig c;
                                   c.engine = simnet::SimEngine::kFlow;
                                   return c;
                                 }());
  const auto res = sim.run(plan.split(2'000'000));
  EXPECT_TRUE(res.values_correct);
  EXPECT_GT(res.aggregate_bandwidth, 0.97 * plan.aggregate_bandwidth());
  EXPECT_LE(res.aggregate_bandwidth, plan.aggregate_bandwidth() + 1e-9);
}

// Fault scripts are cycle-level phenomena; the tier must refuse rather
// than silently ignore them.
TEST(FlowEngine, RejectsFaultScripts) {
  const auto plan = core::AllreducePlanner(3).build();
  const auto link = plan.topology().edge(0);

  simnet::SimConfig cfg;
  cfg.engine = simnet::SimEngine::kFlow;
  cfg.faults.events.push_back(
      {100, link.u, link.v, simnet::FaultType::kLinkDown});
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  EXPECT_THROW(sim.run(plan.split(600)), std::invalid_argument);
}

// The rejection names the offending SimConfig field and its event count,
// so a caller staring at a large config knows what to clear.
TEST(FlowEngine, RejectionNamesOffendingFaultFields) {
  const auto plan = core::AllreducePlanner(3).build();
  const auto link = plan.topology().edge(0);
  const auto message_of = [&](const simnet::SimConfig& cfg) {
    simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
    try {
      sim.run(plan.split(600));
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };

  simnet::SimConfig events_only;
  events_only.engine = simnet::SimEngine::kFlow;
  events_only.faults.events.push_back(
      {100, link.u, link.v, simnet::FaultType::kLinkDown});
  events_only.faults.events.push_back(
      {200, link.u, link.v, simnet::FaultType::kLinkUp});
  const std::string ev_msg = message_of(events_only);
  EXPECT_NE(ev_msg.find("faults.events (2 scheduled link events)"),
            std::string::npos)
      << ev_msg;
  EXPECT_NE(ev_msg.find("use the horizon engine"), std::string::npos)
      << ev_msg;

  simnet::SimConfig one_event = events_only;
  one_event.faults.events.pop_back();
  const std::string one_msg = message_of(one_event);
  EXPECT_NE(one_msg.find("faults.events (1 scheduled link event)"),
            std::string::npos)
      << one_msg;
}

// A parent array can have every parent edge physical and still hold a
// cycle off the root. It is no SpanningTree, so it never reaches the tier,
// which would walk the cycle forever.
TEST(FlowEngine, RejectsParentCycles) {
  // Root 0 on the path 0-1-2-3; vertices 2 and 3 point at each other.
  try {
    static_cast<void>(trees::SpanningTree(0, {-1, 0, 3, 2}));
    ADD_FAILURE() << "cyclic parent chain accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "SpanningTree: parent vector has a cycle");
  }
}

// Engine names round-trip through the CLI parser; every other name,
// "reference" and "fastforward" included, fails loud.
TEST(FlowEngine, EngineNameParsing) {
  EXPECT_EQ(simnet::engine_from_string("flow"), simnet::SimEngine::kFlow);
  EXPECT_EQ(simnet::engine_from_string("horizon"),
            simnet::SimEngine::kFastForward);
  EXPECT_THROW(simnet::engine_from_string("fastforward"),
               std::invalid_argument);
  EXPECT_THROW(simnet::engine_from_string("reference"),
               std::invalid_argument);
  EXPECT_THROW(simnet::engine_from_string("warp"), std::invalid_argument);
  EXPECT_STREQ(simnet::to_string(simnet::SimEngine::kFlow), "flow");
  EXPECT_STREQ(simnet::to_string(simnet::SimEngine::kFastForward), "horizon");
}

}  // namespace
