// Differential fault-injection harness (the pin for docs/resilience.md):
//
//  * every fault script in the matrix — permanent link down, transient
//    down/up, double failure, instant blip, and outages under background
//    traffic — must be honored bit-identically by the simulator
//    and the test-only reference oracle (tests/oracle) across q in
//    {5, 7, 11}: every SimResult field, with and without a Recorder
//    attached, so every cell of {no faults, faults} x {quiet,
//    background} x {recorder off, on} is covered;
//  * collectives::run_resilient_allreduce must recover a mid-collective
//    single-link failure (values_correct == true end to end) and its
//    RecoveryStats are pinned against golden values per q; a link that
//    lost packets in flight is excluded even when it came back up, and a
//    link that went down idle is not;
//  * a run that stalls ends with the oracle's exception at the oracle's
//    cycle, or is revived by a later link-up exactly like the oracle;
//  * fault-script validation and accounting identities are exercised at
//    the simulator boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "collectives/innetwork.hpp"
#include "collectives/resilient.hpp"
#include "core/planner.hpp"
#include "graph/graph.hpp"
#include "obsv/recorder.hpp"
#include "oracle/expect_same_result.hpp"
#include "oracle/reference_allreduce.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"

namespace {

using namespace pfar;

// A link the plan actually uses: the tree-0 uplink of the smallest
// non-root vertex. Downing it is guaranteed to hurt at least one tree.
graph::Edge used_link(const core::AllreducePlan& plan, int tree_index = 0) {
  const auto& tree = plan.trees()[static_cast<std::size_t>(tree_index)];
  const auto& parents = tree.parents();
  for (int v = 0; v < static_cast<int>(parents.size()); ++v) {
    if (parents[static_cast<std::size_t>(v)] >= 0) {
      return graph::Edge(v, parents[static_cast<std::size_t>(v)]);
    }
  }
  throw std::logic_error("tree has no edges");
}

simnet::SimResult run_sim(const core::AllreducePlan& plan,
                          const simnet::SimConfig& cfg, long long m) {
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  return sim.run(plan.split(m));
}

// Every SimResult field, including the fault-observability ones, must be
// bit-identical between the simulator and the oracle, and attaching a
// Recorder to the simulator must not change any of them (the recorder
// on/off axis of the composition matrix).
void expect_identical(const core::AllreducePlan& plan,
                      const simnet::SimConfig& cfg, long long m,
                      const std::string& label) {
  const simnet::SimResult unobserved = run_sim(plan, cfg, m);
  oracle::expect_same_result(
      unobserved,
      oracle::run_reference_allreduce(plan.topology(), plan.trees(), cfg,
                                      plan.split(m)),
      label);
  obsv::Recorder recorder;
  simnet::SimConfig observed = cfg;
  observed.recorder = &recorder;
  oracle::expect_same_result(run_sim(plan, observed, m), unobserved,
                             label + "/recorder");
}

class FaultDifferential : public ::testing::TestWithParam<int> {};

TEST_P(FaultDifferential, EnginesBitIdenticalAcrossScriptMatrix) {
  const int q = GetParam();
  const auto plan = core::AllreducePlanner(q).build();
  const graph::Edge a = used_link(plan, 0);
  const graph::Edge b =
      used_link(plan, static_cast<int>(plan.trees().size()) - 1);
  const long long m = 2000;

  simnet::SimConfig base;
  base.progress_timeout = 1500;

  expect_identical(plan, base, m, "no_faults");
  {
    simnet::SimConfig cfg = base;  // permanent single-link failure
    cfg.faults.events.push_back(
        {200, a.u, a.v, simnet::FaultType::kLinkDown});
    expect_identical(plan, cfg, m, "permanent_down");
  }
  {
    simnet::SimConfig cfg = base;  // transient outage, link comes back
    cfg.faults.events.push_back(
        {150, a.u, a.v, simnet::FaultType::kLinkDown});
    cfg.faults.events.push_back({400, a.u, a.v, simnet::FaultType::kLinkUp});
    expect_identical(plan, cfg, m, "transient_down_up");
  }
  {
    simnet::SimConfig cfg = base;  // staggered double failure
    cfg.faults.events.push_back(
        {100, a.u, a.v, simnet::FaultType::kLinkDown});
    cfg.faults.events.push_back(
        {250, b.u, b.v, simnet::FaultType::kLinkDown});
    expect_identical(plan, cfg, m, "double_down");
  }
  {
    // No detection configured: a transient hiccup early enough to lose
    // nothing (before any packet is in flight) must still match and stay
    // healthy.
    simnet::SimConfig cfg;
    cfg.faults.events.push_back({0, b.u, b.v, simnet::FaultType::kLinkDown});
    cfg.faults.events.push_back({1, b.u, b.v, simnet::FaultType::kLinkUp});
    expect_identical(plan, cfg, m, "instant_blip");
  }
}

// Faults under background traffic: the loop's per-up-cycle background
// accounting (a down link freezes its drain accumulator) and the idle
// jump's background wake points must compose with link events exactly as
// the oracle's per-cycle loop does.
TEST_P(FaultDifferential, EnginesBitIdenticalUnderBackgroundTraffic) {
  const int q = GetParam();
  const auto plan = core::AllreducePlanner(q).build();
  const graph::Edge a = used_link(plan, 0);
  const long long m = 1000;

  simnet::SimConfig base;
  base.progress_timeout = 400;  // outlives the outage below
  base.background.seed = 5;
  {
    simnet::SimConfig cfg = base;  // no faults, uniform load
    cfg.background.pattern = simnet::TrafficPattern::kUniform;
    cfg.background.load = 0.2;
    expect_identical(plan, cfg, m, "no_faults_uniform");
  }
  {
    simnet::SimConfig cfg = base;  // outage under permutation load
    cfg.background.pattern = simnet::TrafficPattern::kPermutation;
    cfg.background.load = 0.3;
    cfg.faults.events.push_back(
        {200, a.u, a.v, simnet::FaultType::kLinkDown});
    cfg.faults.events.push_back({500, a.u, a.v, simnet::FaultType::kLinkUp});
    expect_identical(plan, cfg, m, "permutation_down_up");
  }
  {
    simnet::SimConfig cfg = base;  // short outage under uniform load
    cfg.background.pattern = simnet::TrafficPattern::kUniform;
    cfg.background.load = 0.1;
    cfg.faults.events.push_back(
        {300, a.u, a.v, simnet::FaultType::kLinkDown});
    cfg.faults.events.push_back({360, a.u, a.v, simnet::FaultType::kLinkUp});
    expect_identical(plan, cfg, m, "uniform_blip");
  }
}

TEST_P(FaultDifferential, FaultedRunAccountingIsConsistent) {
  const int q = GetParam();
  const auto plan = core::AllreducePlanner(q).build();
  const graph::Edge a = used_link(plan, 0);

  simnet::SimConfig cfg;
  cfg.progress_timeout = 1500;
  cfg.faults.events.push_back({200, a.u, a.v, simnet::FaultType::kLinkDown});
  const auto res = run_sim(plan, cfg, 2000);

  // The downed link is still down at run end; no values were corrupted
  // (losses freeze streams, they never misalign them).
  ASSERT_EQ(res.links_down.size(), 1u);
  EXPECT_EQ(res.links_down[0], graph::Edge(a.u, a.v));
  EXPECT_TRUE(res.values_correct);

  // At least one tree failed, with a sane detection cycle and a complete
  // prefix strictly below its assignment.
  const auto split = plan.split(2000);
  long long failures = 0;
  for (std::size_t t = 0; t < res.tree_failed.size(); ++t) {
    if (!res.tree_failed[t]) {
      EXPECT_EQ(res.tree_completed[t], split[t]);
      EXPECT_EQ(res.tree_fail_cycle[t], -1);
      continue;
    }
    ++failures;
    EXPECT_GT(res.tree_fail_cycle[t], 200);
    EXPECT_LE(res.tree_fail_cycle[t], res.cycles);
    EXPECT_LT(res.tree_completed[t], split[t]);
    EXPECT_GE(res.tree_completed[t], 0);
  }
  EXPECT_GE(failures, 1);

  // Per-link drop counts sum to the totals, and dropped flits are a subset
  // of the flits that crossed each link.
  long long dropped = 0;
  for (std::size_t d = 0; d < res.link_dropped_flits.size(); ++d) {
    dropped += res.link_dropped_flits[d];
    EXPECT_LE(res.link_dropped_flits[d], res.link_flits[d]);
  }
  EXPECT_EQ(dropped, res.dropped_flits);
  EXPECT_GE(res.canceled_packets, 0);
}

INSTANTIATE_TEST_SUITE_P(Quadrics, FaultDifferential,
                         ::testing::Values(5, 7, 11));

// --- Resilient driver: recovery + golden RecoveryStats --------------------

struct GoldenRecovery {
  int q;
  long long detection_cycle;
  long long chunks_replayed;
  long long total_cycles;
  int attempts;
};

TEST(ResilientAllreduce, RecoversSingleLinkFailureWithGoldenStats) {
  // One scripted mid-collective single-link failure per q; the stats are
  // pinned so recovery-path behavior cannot drift silently.
  const GoldenRecovery goldens[] = {
      {5, 1023, 420, 1734, 2},
      {7, 1027, 249, 1799, 2},
      {11, 1027, 93, 2303, 2},
  };
  for (const auto& g : goldens) {
    const auto plan = core::AllreducePlanner(g.q).build();
    const graph::Edge a = used_link(plan, 0);

    simnet::SimConfig cfg;
    cfg.progress_timeout = 800;
    cfg.faults.events.push_back(
        {200, a.u, a.v, simnet::FaultType::kLinkDown});

    collectives::ResilienceConfig rc;
    rc.policy = collectives::RecoveryPolicy::kRepack;

    const auto stats = collectives::run_resilient_allreduce(
        plan.topology(), plan.trees(), 1500, cfg, rc);

    EXPECT_TRUE(stats.recovered) << "q=" << g.q;
    EXPECT_TRUE(stats.values_correct) << "q=" << g.q;
    EXPECT_TRUE(stats.final_sim.values_correct) << "q=" << g.q;
    EXPECT_EQ(stats.attempts, g.attempts) << "q=" << g.q;
    EXPECT_EQ(stats.detection_cycle, g.detection_cycle) << "q=" << g.q;
    EXPECT_EQ(stats.chunks_replayed, g.chunks_replayed) << "q=" << g.q;
    EXPECT_EQ(stats.total_cycles, g.total_cycles) << "q=" << g.q;
    ASSERT_EQ(stats.failed_links.size(), 1u) << "q=" << g.q;
    EXPECT_EQ(stats.failed_links[0], graph::Edge(a.u, a.v)) << "q=" << g.q;
    EXPECT_GT(stats.degraded_aggregate_bandwidth, 0.0) << "q=" << g.q;
    ASSERT_EQ(stats.attempt_log.size(), 2u) << "q=" << g.q;
    EXPECT_GT(stats.attempt_log[0].elements_lost, 0) << "q=" << g.q;
    EXPECT_EQ(stats.attempt_log[1].elements_lost, 0) << "q=" << g.q;
    EXPECT_EQ(stats.attempt_log[1].elements, g.chunks_replayed)
        << "q=" << g.q;
  }
}

// The q=16 repack of a low-depth plan runs 219-259 hops deep. With the
// configured 800-cycle timeout every repacked tree was canceled before its
// first delivery, so every retry lost the same elements; each attempt's
// timeout now covers its plan's pipeline fill.
TEST(ResilientAllreduce, DeepRepackRecoversInOneReplay) {
  const auto plan = core::AllreducePlanner(16).build();
  const graph::Edge a = used_link(plan, 0);

  simnet::SimConfig cfg;
  cfg.progress_timeout = 800;
  cfg.faults.events.push_back({200, a.u, a.v, simnet::FaultType::kLinkDown});

  collectives::ResilienceConfig rc;
  rc.policy = collectives::RecoveryPolicy::kRepack;
  const auto stats = collectives::run_resilient_allreduce(
      plan.topology(), plan.trees(), 1500, cfg, rc);
  EXPECT_TRUE(stats.recovered);
  EXPECT_TRUE(stats.values_correct);
  EXPECT_EQ(stats.attempts, 2);
  ASSERT_EQ(stats.attempt_log.size(), 2u);
  EXPECT_GT(stats.attempt_log[0].elements_lost, 0);
  EXPECT_EQ(stats.attempt_log[1].elements_lost, 0);
}

TEST(ResilientAllreduce, KeepSurvivingPolicyAlsoRecovers) {
  const auto plan = core::AllreducePlanner(7).build();
  const graph::Edge a = used_link(plan, 0);

  simnet::SimConfig cfg;
  cfg.progress_timeout = 800;
  cfg.faults.events.push_back({200, a.u, a.v, simnet::FaultType::kLinkDown});

  collectives::ResilienceConfig rc;
  rc.policy = collectives::RecoveryPolicy::kKeepSurviving;
  const auto stats = collectives::run_resilient_allreduce(
      plan.topology(), plan.trees(), 1500, cfg, rc);
  EXPECT_TRUE(stats.recovered);
  EXPECT_TRUE(stats.values_correct);
  // Keep-surviving drops whole trees: strictly fewer trees in the replay.
  ASSERT_EQ(stats.attempt_log.size(), 2u);
  EXPECT_LT(stats.attempt_log[1].trees, stats.attempt_log[0].trees);
  EXPECT_LT(stats.attempt_log[1].model_bandwidth,
            stats.attempt_log[0].model_bandwidth);
}

// Recovery excludes every link that lost packets in flight, even one that
// is back up when the attempt ends, and no link that went down idle. Both
// links below go down mid-stream and come back up: the tree-0 uplink while
// it streams, so packets in flight on it are lost and its tree is
// canceled; a link no tree uses, so nothing is lost on it.
TEST(ResilientAllreduce, ExcludesTransientLinksThatLostPacketsOnly) {
  const auto plan = core::AllreducePlanner(7).build();
  const graph::Graph& g = plan.topology();
  const graph::Edge lossy = used_link(plan, 0);
  std::vector<char> used(static_cast<std::size_t>(g.num_edges()), 0);
  for (const auto& tree : plan.trees()) {
    for (const graph::Edge& e : tree.edges()) {
      used[static_cast<std::size_t>(g.edge_id(e.u, e.v))] = 1;
    }
  }
  const auto idle_id = static_cast<int>(
      std::find(used.begin(), used.end(), 0) - used.begin());
  ASSERT_LT(idle_id, g.num_edges()) << "every link carries a tree";
  const graph::Edge idle = g.edge(idle_id);

  simnet::SimConfig cfg;
  cfg.progress_timeout = 800;
  cfg.faults.events = {
      {200, lossy.u, lossy.v, simnet::FaultType::kLinkDown},
      {220, idle.u, idle.v, simnet::FaultType::kLinkDown},
      {400, lossy.u, lossy.v, simnet::FaultType::kLinkUp},
      {420, idle.u, idle.v, simnet::FaultType::kLinkUp}};

  // The first attempt alone: both links are back up at its end, and only
  // the streaming one dropped flits.
  const auto first = run_sim(plan, cfg, 1500);
  EXPECT_TRUE(first.links_down.empty());
  EXPECT_GT(first.dropped_flits, 0);
  const auto dropped_on = [&](const graph::Edge& e) {
    const auto d = static_cast<std::size_t>(2 * g.edge_id(e.u, e.v));
    return first.link_dropped_flits[d] + first.link_dropped_flits[d + 1];
  };
  EXPECT_GT(dropped_on(lossy), 0);
  EXPECT_EQ(dropped_on(idle), 0);

  const auto stats =
      collectives::run_resilient_allreduce(g, plan.trees(), 1500, cfg);
  EXPECT_TRUE(stats.recovered);
  EXPECT_TRUE(stats.values_correct);
  EXPECT_GE(stats.attempts, 2);
  EXPECT_EQ(std::count(stats.failed_links.begin(), stats.failed_links.end(),
                       lossy),
            1);
  EXPECT_EQ(std::count(stats.failed_links.begin(), stats.failed_links.end(),
                       idle),
            0);
}

TEST(ResilientAllreduce, HealthyRunIsZeroOverhead) {
  const auto plan = core::AllreducePlanner(5).build();
  simnet::SimConfig cfg;
  cfg.progress_timeout = 800;
  const auto stats = collectives::run_resilient_allreduce(
      plan.topology(), plan.trees(), 1000, cfg);
  EXPECT_TRUE(stats.recovered);
  EXPECT_TRUE(stats.values_correct);
  EXPECT_EQ(stats.attempts, 1);
  EXPECT_EQ(stats.detection_cycle, -1);
  EXPECT_EQ(stats.chunks_replayed, 0);
  EXPECT_TRUE(stats.failed_links.empty());
  // Identical to the plain simulation: the fault layer is inert.
  const auto res = run_sim(plan, cfg, 1000);
  EXPECT_EQ(stats.total_cycles, res.cycles);
}

// --- Runs that stall --------------------------------------------------------

// A link down for good with no loss detection: the other trees finish, the
// severed one stalls, and the run ends in the deadlock exception at the
// same cycle as the oracle's — or in the cycle-limit exception when that
// limit falls first.
TEST(FaultStall, DeadlockReportsItsCycleLikeTheOracle) {
  const auto plan =
      core::AllreducePlanner(7).solution(core::Solution::kEdgeDisjoint).build();
  simnet::SimConfig cfg;
  cfg.stall_limit = 300;
  const graph::Edge a = used_link(plan);
  cfg.faults.events.push_back({100, a.u, a.v, simnet::FaultType::kLinkDown});
  const auto message = [&](const simnet::SimConfig& c, bool reference) {
    try {
      if (reference) {
        static_cast<void>(oracle::run_reference_allreduce(
            plan.topology(), plan.trees(), c, plan.split(20000)));
      } else {
        static_cast<void>(run_sim(plan, c, 20000));
      }
    } catch (const std::runtime_error& ex) {
      return std::string(ex.what());
    }
    return std::string("no exception");
  };
  for (const bool reference : {false, true}) {
    EXPECT_EQ(message(cfg, reference),
              "AllreduceSimulator: deadlock detected at cycle 5524")
        << "reference=" << reference;
  }
  cfg.max_cycles = 5000;
  for (const bool reference : {false, true}) {
    EXPECT_EQ(message(cfg, reference),
              "AllreduceSimulator: cycle limit exceeded")
        << "reference=" << reference;
  }
}

// A tree that stalls longer than stall_limit does not fail the run while
// other trees still move flits: a later link-up revives it, loss-free
// (the link went down before anything was in flight).
TEST(FaultStall, StalledTreeRevivedByLinkUpMatchesOracle) {
  const auto plan =
      core::AllreducePlanner(7).solution(core::Solution::kEdgeDisjoint).build();
  simnet::SimConfig cfg;
  cfg.stall_limit = 300;
  const graph::Edge a = used_link(plan);
  cfg.faults.events = {{0, a.u, a.v, simnet::FaultType::kLinkDown},
                       {1000, a.u, a.v, simnet::FaultType::kLinkUp}};
  const auto res = run_sim(plan, cfg, 20000);
  EXPECT_TRUE(res.values_correct);
  EXPECT_EQ(res.dropped_packets, 0);
  expect_identical(plan, cfg, 20000, "stall revived by link-up");
}

// --- Script validation at the simulator boundary --------------------------

TEST(FaultScriptValidation, RejectsBadScripts) {
  const auto plan = core::AllreducePlanner(5).build();

  {
    simnet::SimConfig cfg;  // non-link event
    cfg.faults.events.push_back({10, 0, 0, simnet::FaultType::kLinkDown});
    EXPECT_THROW(
        simnet::AllreduceSimulator(plan.topology(), plan.trees(), cfg),
        std::invalid_argument);
  }
  {
    simnet::SimConfig cfg;  // negative cycle
    const graph::Edge a = used_link(plan);
    cfg.faults.events.push_back({-1, a.u, a.v, simnet::FaultType::kLinkDown});
    EXPECT_THROW(
        simnet::AllreduceSimulator(plan.topology(), plan.trees(), cfg),
        std::invalid_argument);
  }
  {
    simnet::SimConfig cfg;  // timeout must stay below the stall limit
    cfg.progress_timeout = cfg.stall_limit;
    EXPECT_THROW(
        simnet::AllreduceSimulator(plan.topology(), plan.trees(), cfg),
        std::invalid_argument);
  }
  {
    simnet::SimConfig cfg;  // detection disabled is rejected by the driver
    EXPECT_THROW(static_cast<void>(collectives::run_resilient_allreduce(
                     plan.topology(), plan.trees(), 100, cfg)),
                 std::invalid_argument);
  }
}

}  // namespace
