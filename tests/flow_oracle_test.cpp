// Bit-identity of the flow tier (SimEngine::kFlow) with the tier as first
// written (oracle::run_reference_flow, tests/oracle/reference_flow.cpp).
//
// The product tier resolves tree edges vertex-major, starts the first
// max-min call from the structural VC counts, and defers a fill round's
// fix-ups when a replay proves no saturation test can change under them.
// None of that may move a single SimResult field: every case below
// compares the whole result through oracle::result_differences. The
// matrix crosses radix, tree set, split (optimal and seeded skews with
// empty trees, which force several max-min calls and multi-round fills),
// packet framing, link latency and background traffic (whose per-link
// capacities take the in-order fill path).

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "collectives/innetwork.hpp"
#include "core/planner.hpp"
#include "oracle/expect_same_result.hpp"
#include "oracle/reference_allreduce.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"
#include "simnet/flow_sim.hpp"

namespace {

using namespace pfar;

void expect_flow_matches_oracle(const graph::Graph& topology,
                                const std::vector<trees::SpanningTree>& trees,
                                simnet::SimConfig config,
                                const std::vector<long long>& split,
                                const std::string& label) {
  config.engine = simnet::SimEngine::kFlow;
  // The constructor validates the trees, as every product caller does
  // before the oracle's precondition holds.
  simnet::AllreduceSimulator simulator(topology, trees, config);
  const simnet::SimResult product = simulator.run(split);
  const simnet::SimResult reference =
      oracle::run_reference_flow(topology, trees, config, split);
  oracle::expect_same_result(product, reference, label);
}

// A seeded uneven split of `m` elements: about a third of the trees get
// none (at least one tree keeps elements), the rest random shares.
std::vector<long long> skewed_split(std::size_t trees, long long m,
                                    std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<long long> weight(trees, 0);
  long long total = 0;
  for (auto& w : weight) {
    w = rng() % 3 == 0 ? 0 : 1 + static_cast<long long>(rng() % 100);
    total += w;
  }
  if (total == 0) {
    weight[rng() % trees] = 1;
    total = 1;
  }
  std::vector<long long> split(trees, 0);
  long long given = 0;
  for (std::size_t t = 0; t < trees; ++t) {
    split[t] = m * weight[t] / total;
    given += split[t];
  }
  for (std::size_t t = 0; given < m; t = (t + 1) % trees) {
    if (weight[t] > 0) {
      ++split[t];
      ++given;
    }
  }
  return split;
}

core::AllreducePlan build_plan(int q, core::Solution solution) {
  return core::AllreducePlanner(q).solution(solution).threads(1).build();
}

TEST(FlowOracle, MatchesAcrossRadixTreeSetsAndSplits) {
  std::uint64_t seed = 1;
  for (int q : {2, 3, 4, 5, 7, 8, 9, 11, 13}) {
    for (const auto sol : {core::Solution::kLowDepth,
                           core::Solution::kEdgeDisjoint,
                           core::Solution::kSingleTree}) {
      const auto plan = build_plan(q, sol);
      const auto& trees = plan.trees();
      for (const long long m : {1LL, 997LL, 20000LL}) {
        std::vector<std::vector<long long>> splits{plan.split(m)};
        for (int k = 0; k < 2; ++k) {
          splits.push_back(skewed_split(trees.size(), m, seed++));
        }
        for (std::size_t s = 0; s < splits.size(); ++s) {
          expect_flow_matches_oracle(
              plan.topology(), trees, simnet::SimConfig{}, splits[s],
              "q=" + std::to_string(q) + " " + core::to_string(sol) +
                  " m=" + std::to_string(m) + " split " + std::to_string(s));
        }
      }
    }
  }
}

// Low-depth trees plus BFS trees from several roots: the trees meet
// different link classes, so the first fill round freezes only some of
// them and applies its deferred fix-ups before further rounds.
TEST(FlowOracle, MatchesOnMixedTreeSetsWithMultiRoundFills) {
  std::uint64_t seed = 100;
  for (int q : {4, 7, 9, 13}) {
    const auto plan = build_plan(q, core::Solution::kLowDepth);
    auto trees = plan.trees();
    for (int root : {0, 3, q}) {
      trees.push_back(collectives::bfs_tree(plan.topology(), root));
    }
    for (const long long m : {500LL, 30011LL}) {
      const std::vector<long long> even(trees.size(), m);
      expect_flow_matches_oracle(plan.topology(), trees, simnet::SimConfig{},
                                 even,
                                 "q=" + std::to_string(q) + " mixed even");
      for (int k = 0; k < 3; ++k) {
        expect_flow_matches_oracle(
            plan.topology(), trees, simnet::SimConfig{},
            skewed_split(trees.size(), m, seed++),
            "q=" + std::to_string(q) + " mixed skew " + std::to_string(k));
      }
    }
  }
}

TEST(FlowOracle, MatchesUnderPacketFramingAndLatency) {
  for (int q : {3, 7, 8}) {
    for (const auto sol :
         {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
      const auto plan = build_plan(q, sol);
      const auto& trees = plan.trees();
      for (const int latency : {0, 1, 5}) {
        simnet::SimConfig config;
        config.packet_payload = 8;
        config.packet_header_flits = 2;
        config.link_latency = latency;
        const std::string label = "q=" + std::to_string(q) + " " +
                                  core::to_string(sol) + " latency " +
                                  std::to_string(latency);
        expect_flow_matches_oracle(plan.topology(), trees, config,
                                   plan.split(12345), label + " optimal");
        expect_flow_matches_oracle(plan.topology(), trees, config,
                                   skewed_split(trees.size(), 12345,
                                                static_cast<std::uint64_t>(
                                                    q * 10 + latency)),
                                   label + " skewed");
      }
    }
  }
}

TEST(FlowOracle, MatchesUnderBackgroundTraffic) {
  for (int q : {5, 7, 11}) {
    for (const auto sol :
         {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
      const auto plan = build_plan(q, sol);
      const auto& trees = plan.trees();
      for (const auto pattern : {simnet::TrafficPattern::kUniform,
                                 simnet::TrafficPattern::kPermutation,
                                 simnet::TrafficPattern::kHotspot}) {
        for (const double load : {0.1, 0.35}) {
          simnet::SimConfig config;
          config.background.pattern = pattern;
          config.background.load = load;
          config.background.hotspot_node = q;
          config.background.seed = 7;
          const std::string label =
              "q=" + std::to_string(q) + " " + core::to_string(sol) +
              " pattern " + std::to_string(static_cast<int>(pattern)) +
              " load " + std::to_string(load);
          expect_flow_matches_oracle(plan.topology(), trees, config,
                                     plan.split(40000), label + " optimal");
          expect_flow_matches_oracle(
              plan.topology(), trees, config,
              skewed_split(trees.size(), 40000,
                           static_cast<std::uint64_t>(q) + 1000),
              label + " skewed");
        }
      }
    }
  }
}

// The one large-radix point: the plan_scale regime, where every tree of
// the first max-min call freezes in its first round.
TEST(FlowOracle, MatchesAtLargeRadix) {
  const auto plan = build_plan(81, core::Solution::kLowDepth);
  const auto& trees = plan.trees();
  expect_flow_matches_oracle(plan.topology(), trees, simnet::SimConfig{},
                             plan.split(20'000'300), "q=81 optimal");
  expect_flow_matches_oracle(plan.topology(), trees, simnet::SimConfig{},
                             skewed_split(trees.size(), 20'000'300, 81),
                             "q=81 skewed");
}

// The exactness check of a deferred round. A link class whose saturation
// test flips after a fix-up must decline: with capacity 1, level 1/4 and
// two users the start state is saturated (1 - 1/2 <= 2 * 1/4) but one
// frozen user later it is not (1 - 1/4 - 1/4 > 1/4). Quiet-network classes
// of real runs keep their answer.
TEST(FlowOracle, DeferralCheckDeclinesWhenAFixupFlipsSaturation) {
  EXPECT_TRUE(simnet::detail::flow_link_saturated(1.0, 0.0, 0.25, 2, 0.25));
  EXPECT_FALSE(simnet::detail::flow_link_saturated(1.0, 0.25, 0.25, 1, 0.25));
  EXPECT_FALSE(simnet::detail::flow_fixups_are_deferrable(1.0, 0.25, 2, 0.25));
  // Saturated until the last of four users is alone on the link.
  EXPECT_FALSE(
      simnet::detail::flow_fixups_are_deferrable(1.0, 0.2, 4, 0.15));
  // Bottleneck and slack classes at the level one saturated class sets.
  const double eps = 1e-9;
  for (const std::int32_t users_max : {1, 2, 3, 7, 64, 127, 254}) {
    const double level = (1.0 - 0.0) / users_max - 0.0;
    for (std::int32_t users = 1; users <= users_max; ++users) {
      EXPECT_TRUE(
          simnet::detail::flow_fixups_are_deferrable(1.0, level, users, eps))
          << users << " of " << users_max;
    }
  }
  // A single user never sees a fix-up of its own link.
  EXPECT_TRUE(simnet::detail::flow_fixups_are_deferrable(1.0, 0.7, 1, 0.5));
}

}  // namespace
