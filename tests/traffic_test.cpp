#include <gtest/gtest.h>

#include <vector>

#include "polarfly/erq.hpp"
#include "simnet/traffic_sim.hpp"
#include "topo/topologies.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace pfar::simnet {
namespace {

TrafficConfig light_load() {
  TrafficConfig cfg;
  cfg.injection_rate = 0.02;
  cfg.warmup_cycles = 500;
  cfg.measure_packets = 3000;
  return cfg;
}

TEST(TrafficSimTest, LowLoadLatencyNearZeroLoadBound) {
  // At very light load, average latency ~ hops * (link latency +
  // serialization) plus small queueing.
  const polarfly::PolarFly pf(5);
  const TrafficSimulator sim(pf.graph());
  auto cfg = light_load();
  const auto r = sim.run(cfg);
  ASSERT_FALSE(r.saturated);
  EXPECT_GT(r.delivered, 0);
  // Diameter 2: average hops between 1 and 2.
  EXPECT_GT(r.avg_hops, 1.0);
  EXPECT_LT(r.avg_hops, 2.0);
  const double zero_load =
      r.avg_hops * (cfg.link_latency + cfg.packet_flits);
  EXPECT_GE(r.avg_latency, zero_load);
  EXPECT_LT(r.avg_latency, 3.0 * zero_load);
}

TEST(TrafficSimTest, ThroughputMatchesOfferedLoadBelowSaturation) {
  const polarfly::PolarFly pf(5);
  const TrafficSimulator sim(pf.graph());
  auto cfg = light_load();
  cfg.injection_rate = 0.05;
  cfg.measure_packets = 5000;
  const auto r = sim.run(cfg);
  ASSERT_FALSE(r.saturated);
  EXPECT_NEAR(r.throughput, 0.05, 0.01);
}

TEST(TrafficSimTest, LatencyIncreasesWithLoad) {
  const polarfly::PolarFly pf(5);
  const TrafficSimulator sim(pf.graph());
  auto low = light_load();
  auto high = light_load();
  high.injection_rate = 0.25;
  const auto a = sim.run(low);
  const auto b = sim.run(high);
  ASSERT_FALSE(a.saturated);
  ASSERT_FALSE(b.saturated);
  EXPECT_GT(b.avg_latency, a.avg_latency);
  EXPECT_GE(b.p99_latency, a.p99_latency);
}

TEST(TrafficSimTest, SaturationDetected) {
  // Far beyond capacity the run cannot deliver the quota in max_cycles.
  const polarfly::PolarFly pf(3);
  const TrafficSimulator sim(pf.graph());
  TrafficConfig cfg;
  cfg.injection_rate = 1.0;
  cfg.measure_packets = 1'000'000;
  cfg.max_cycles = 20'000;
  const auto r = sim.run(cfg);
  EXPECT_TRUE(r.saturated);
}

TEST(TrafficSimTest, HotspotSaturatesEarlierThanUniform) {
  const polarfly::PolarFly pf(5);
  const TrafficSimulator sim(pf.graph());
  auto uniform = light_load();
  uniform.injection_rate = 0.15;
  uniform.measure_packets = 4000;
  auto hotspot = uniform;
  hotspot.pattern = TrafficPattern::kHotspot;
  hotspot.hotspot_fraction = 0.5;
  hotspot.max_cycles = 300'000;
  const auto u = sim.run(uniform);
  const auto h = sim.run(hotspot);
  ASSERT_FALSE(u.saturated);
  // Node 0's ejection feeds from q+1 = 6 links; half of 31 nodes' 0.15
  // load converging on it exceeds its share: latency blows up or run
  // saturates outright.
  EXPECT_TRUE(h.saturated || h.avg_latency > 3.0 * u.avg_latency);
}

TEST(TrafficSimTest, PermutationPatternDelivers) {
  const auto g = topo::torus({4, 4});
  const TrafficSimulator sim(g);
  auto cfg = light_load();
  cfg.pattern = TrafficPattern::kPermutation;
  const auto r = sim.run(cfg);
  ASSERT_FALSE(r.saturated);
  EXPECT_GT(r.delivered, 0);
}

TEST(TrafficSimTest, LowDiameterBeatsTorusOnLatency) {
  // Section 1.3's positioning: at similar size and light load, PolarFly's
  // diameter-2 paths deliver lower latency than a 2D torus of equal node
  // count (average hops ~1.9 vs ~3).
  const polarfly::PolarFly pf(7);  // 57 nodes
  const auto torus_graph = topo::torus({8, 7});  // 56 nodes
  const TrafficSimulator pf_sim(pf.graph());
  const TrafficSimulator torus_sim(torus_graph);
  auto cfg = light_load();
  const auto a = pf_sim.run(cfg);
  const auto b = torus_sim.run(cfg);
  ASSERT_FALSE(a.saturated);
  ASSERT_FALSE(b.saturated);
  EXPECT_LT(a.avg_hops, b.avg_hops);
  EXPECT_LT(a.avg_latency, b.avg_latency);
}

TEST(TrafficSimTest, ValiantDoublesPathLengthUnderUniform) {
  const polarfly::PolarFly pf(5);
  const TrafficSimulator sim(pf.graph());
  auto minimal = light_load();
  auto valiant = light_load();
  valiant.routing = Routing::kValiant;
  const auto a = sim.run(minimal);
  const auto b = sim.run(valiant);
  ASSERT_FALSE(a.saturated);
  ASSERT_FALSE(b.saturated);
  // Valiant pays ~2x hops (two minimal phases) at light load.
  EXPECT_GT(b.avg_hops, 1.6 * a.avg_hops);
  EXPECT_LT(b.avg_hops, 2.4 * a.avg_hops);
  EXPECT_GT(b.avg_latency, a.avg_latency);
}

TEST(TrafficSimTest, ValiantSpreadsHotspotTransitLoad) {
  // Valiant cannot fix a true hotspot (the ejection port is the
  // bottleneck), but it must still deliver correctly with the indirect
  // phase active under a skewed pattern.
  const polarfly::PolarFly pf(5);
  const TrafficSimulator sim(pf.graph());
  auto cfg = light_load();
  cfg.pattern = TrafficPattern::kPermutation;
  cfg.routing = Routing::kValiant;
  cfg.injection_rate = 0.1;
  const auto r = sim.run(cfg);
  ASSERT_FALSE(r.saturated);
  EXPECT_GT(r.delivered, 0);
}

TEST(TrafficSimTest, RejectsBadConfigAndGraphs) {
  graph::Graph disconnected(4);
  disconnected.add_edge(0, 1);
  disconnected.finalize();
  EXPECT_THROW(TrafficSimulator{disconnected}, std::invalid_argument);

  const polarfly::PolarFly pf(3);
  const TrafficSimulator sim(pf.graph());
  TrafficConfig bad;
  bad.injection_rate = 1.5;
  EXPECT_THROW(sim.run(bad), std::invalid_argument);
  bad = TrafficConfig{};
  bad.packet_flits = 0;
  EXPECT_THROW(sim.run(bad), std::invalid_argument);
}

TEST(TrafficSimTest, DeterministicForFixedSeed) {
  const polarfly::PolarFly pf(3);
  const TrafficSimulator sim(pf.graph());
  auto cfg = light_load();
  cfg.seed = 99;
  const auto a = sim.run(cfg);
  const auto b = sim.run(cfg);
  EXPECT_EQ(a.delivered, b.delivered);
  EXPECT_DOUBLE_EQ(a.avg_latency, b.avg_latency);
  EXPECT_EQ(a.p99_latency, b.p99_latency);
}

// Regression: a hotspot node id outside [0, N) used to index out of
// bounds; the contract layer now rejects it before the run starts.
TEST(TrafficSimTest, HotspotNodeOutOfRangeIsRejected) {
  const polarfly::PolarFly pf(3);
  const TrafficSimulator sim(pf.graph());
  util::contracts::ScopedThrowHandler guard;
  for (const int node : {-1, pf.graph().num_vertices(),
                         pf.graph().num_vertices() + 5}) {
    auto cfg = light_load();
    cfg.pattern = TrafficPattern::kHotspot;
    cfg.hotspot_node = node;
    EXPECT_THROW(static_cast<void>(sim.run(cfg)),
                 util::contracts::ContractViolation)
        << "hotspot_node=" << node;
  }
  // In-range ids still run.
  auto cfg = light_load();
  cfg.pattern = TrafficPattern::kHotspot;
  cfg.hotspot_node = 0;
  cfg.hotspot_fraction = 0.3;
  EXPECT_GT(sim.run(cfg).delivered, 0);
}

// The kPermutation destination map is pinned for one seed: the traffic
// simulator and background-traffic rates both route it, and it draws from
// the caller's generator, so the draws after it are pinned too.
TEST(TrafficSimTest, PatternPermutationIsPinnedForOneSeed) {
  util::Rng rng(7);
  EXPECT_EQ(pattern_permutation(13, rng),
            (std::vector<int>{12, 0, 11, 8, 3, 9, 7, 1, 5, 4, 11, 2, 6}));
  EXPECT_EQ(rng.next(), 17320858093524191697ull);
}

}  // namespace
}  // namespace pfar::simnet
