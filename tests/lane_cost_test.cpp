// TreeSetCost's two exact shortcuts (docs/simulation_engine.md, "A verified
// period answers other vector sizes" and "A one-tree run depends only on
// its rooted shape"), held to direct runs. Every answer — simulated, a memo
// hit, shared between trees of one rooted shape, or shifted by k whole
// periods from an anchor with k of either sign — must equal a direct
// run_planned_allreduce of the same size. Sizes are asked in ascending and
// in descending order, below, at and above the smallest size an anchor can
// answer. Under background traffic or a fault script no run certifies a
// period, so nothing is shifted.

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "collectives/innetwork.hpp"
#include "collectives/resilient.hpp"
#include "core/planner.hpp"
#include "graph/graph.hpp"
#include "model/congestion_model.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"
#include "topo/topologies.hpp"
#include "trees/spanning_tree.hpp"
#include "util/rng.hpp"

namespace {

using namespace pfar;
using Trees = std::vector<trees::SpanningTree>;

core::AllreducePlan make_plan(int q, core::Solution sol) {
  return core::AllreducePlanner(q).solution(sol).build();
}

collectives::InNetworkResult direct_run(const graph::Graph& g,
                                        const Trees& trees, long long m,
                                        const simnet::SimConfig& cfg) {
  const model::TreeBandwidths bw =
      model::compute_tree_bandwidths(g, trees, 1.0);
  return collectives::run_planned_allreduce(
      g, trees, model::optimal_split(m, bw), bw, cfg);
}

// Asks `cost` for every size in `ms`, in order, and holds each answer to a
// direct run on `trees` (the cost's own trees, or another embedding of
// their shape). Returns how the cost answered.
collectives::TreeSetCost::Answers expect_direct(
    collectives::TreeSetCost& cost, const graph::Graph& g, const Trees& trees,
    const simnet::SimConfig& cfg, const std::vector<long long>& ms,
    const std::string& label) {
  for (const long long m : ms) {
    const collectives::RunCost got = cost.cost(m);
    const collectives::InNetworkResult run = direct_run(g, trees, m, cfg);
    EXPECT_EQ(got.cycles, run.sim.cycles) << label << " m=" << m;
    EXPECT_EQ(got.flits, collectives::total_flits(run.sim))
        << label << " m=" << m;
    EXPECT_EQ(got.correct, run.sim.values_correct &&
                               collectives::undelivered_elements(run) == 0)
        << label << " m=" << m;
  }
  const collectives::TreeSetCost::Answers a = cost.answers();
  EXPECT_EQ(a.simulated + a.memo + a.shifted,
            static_cast<long long>(std::count_if(
                ms.begin(), ms.end(), [](long long m) { return m > 0; })))
      << label;
  return a;
}

// Sizes around an anchor of `anchor_m` elements: whole periods above and
// below it, the smallest size it answers (periods_left - 1 periods below),
// one period less, sizes off the period grid, small runs that never settle,
// and one repeat (a memo hit). Empty if the anchor certifies no period.
std::vector<long long> sizes_around(const graph::Graph& g, const Trees& trees,
                                    const simnet::SimConfig& cfg,
                                    long long anchor_m, util::Rng& rng) {
  const auto anchor = direct_run(g, trees, anchor_m, cfg);
  if (!anchor.period) return {};
  const simnet::PeriodCertificate& p = *anchor.period;
  // Elements per period of the whole set, when the split moves in step.
  const long long step =
      std::accumulate(p.elements_per_period.begin(),
                      p.elements_per_period.end(), 0LL);
  const long long lowest = anchor_m - (p.periods_left - 1) * step;
  std::vector<long long> ms = {anchor_m,
                               anchor_m + step,
                               anchor_m + 7 * step,
                               anchor_m - step,
                               lowest + step,
                               lowest,
                               lowest - step,
                               lowest - 1,
                               anchor_m + 1,
                               1 + static_cast<long long>(rng.next_below(64)),
                               anchor_m + 3 * step};
  ms.push_back(ms.front());
  ms.erase(std::remove_if(ms.begin(), ms.end(),
                          [](long long m) { return m <= 0; }),
           ms.end());
  return ms;
}

// The same sizes asked of two fresh costs, ascending then descending.
collectives::TreeSetCost::Answers expect_both_orders(
    const graph::Graph& g, const Trees& trees, const simnet::SimConfig& cfg,
    std::vector<long long> ms, const std::string& label) {
  std::sort(ms.begin(), ms.end());
  collectives::TreeSetCost up(g, trees, cfg);
  const auto a = expect_direct(up, g, trees, cfg, ms, label + " ascending");
  std::reverse(ms.begin(), ms.end());
  collectives::TreeSetCost down(g, trees, cfg);
  const auto b = expect_direct(down, g, trees, cfg, ms, label + " descending");
  return {a.simulated + b.simulated, a.memo + b.memo, a.shifted + b.shifted};
}

// The paper's edge-disjoint construction (Section 7.2) makes every lane
// the same rooted shape; one-tree lanes shift from their first anchor.
TEST(LaneCost, OneTreeLanesAcrossRadices) {
  util::Rng rng(2101);
  for (const int q : {3, 5, 7, 11, 13}) {
    const auto plan = make_plan(q, core::Solution::kEdgeDisjoint);
    const graph::Graph& g = plan.topology();
    const std::string label = "q=" + std::to_string(q);
    trees::RootedShapes shapes;
    const int shape = shapes.name(plan.trees()[0]);
    for (const auto& tree : plan.trees()) {
      EXPECT_EQ(shapes.name(tree), shape) << label;
    }
    const simnet::SimConfig cfg;
    const Trees lane{plan.trees()[0]};
    const auto ms = sizes_around(g, lane, cfg, 4000, rng);
    ASSERT_FALSE(ms.empty()) << label << ": no certified period";
    const auto answers = expect_both_orders(g, lane, cfg, ms, label);
    EXPECT_GT(answers.shifted, 0) << label;
    EXPECT_GT(answers.memo, 0) << label;

    // Another lane of the same shape, answered from the first lane's cost.
    const Trees other{plan.trees().back()};
    collectives::TreeSetCost shared(g, lane, cfg);
    expect_direct(shared, g, other, cfg, ms, label + " shared lane");
  }
}

// Packet framing, link timing and credits, on one-tree lanes and on
// multi-tree sets (low-depth trees share links; edge-disjoint trees share
// none, and a tree beside twin trees forms link-disjoint groups of
// different periods).
TEST(LaneCost, ConfigMatrixOnOneTreeAndMultiTreeSets) {
  util::Rng rng(2102);
  const auto low = make_plan(5, core::Solution::kLowDepth);
  const auto disjoint = make_plan(5, core::Solution::kEdgeDisjoint);
  struct Set {
    const core::AllreducePlan* plan;
    Trees trees;
    const char* name;
  };
  const Set sets[] = {
      {&disjoint, {disjoint.trees()[0]}, "one tree"},
      {&low, low.trees(), "low-depth"},
      {&disjoint, disjoint.trees(), "edge-disjoint"},
      // Two groups with different periods: a tree alone, and twin trees
      // that share every link.
      {&disjoint,
       {disjoint.trees()[0], disjoint.trees()[1], disjoint.trees()[1]},
       "one tree + twins"},
  };
  const int payloads[] = {1, 3, 8};
  const int headers[] = {0, 2};
  const int latencies[] = {1, 4, 7};
  const int credits[] = {2, 16};
  long long one_tree_shifts = 0;
  for (int i = 0; i < 12; ++i) {
    simnet::SimConfig cfg;
    cfg.packet_payload = payloads[i % 3];
    cfg.packet_header_flits = headers[i % 2];
    cfg.link_latency = latencies[(i / 2) % 3];
    cfg.vc_credits = credits[(i / 6) % 2];
    const std::string config =
        "payload=" + std::to_string(cfg.packet_payload) +
        " header=" + std::to_string(cfg.packet_header_flits) +
        " latency=" + std::to_string(cfg.link_latency) +
        " credits=" + std::to_string(cfg.vc_credits);
    for (const Set& set : sets) {
      const graph::Graph& g = set.plan->topology();
      const long long anchor_m =
          1500 + static_cast<long long>(rng.next_below(1500));
      const auto ms = sizes_around(g, set.trees, cfg, anchor_m, rng);
      const std::string label = std::string(set.name) + " " + config;
      if (set.trees.size() == 1) {
        ASSERT_FALSE(ms.empty()) << label << ": no certified period";
      }
      if (ms.empty()) continue;
      const auto answers = expect_both_orders(g, set.trees, cfg, ms, label);
      if (set.trees.size() == 1) one_tree_shifts += answers.shifted;
    }
  }
  EXPECT_GT(one_tree_shifts, 0);
}

// The certificate's own claim, on splits TreeSetCost never makes: from a
// skewed anchor split s, every split s + k * e with periods_left + k >= 1
// takes exactly k periods' cycles and flits more. The lone tree is
// starved beside twin trees that share every link.
TEST(LaneCost, CertificateHoldsDownToItsBoundaryOnSkewedSplits) {
  const auto plan = make_plan(5, core::Solution::kEdgeDisjoint);
  const graph::Graph& g = plan.topology();
  const std::vector<trees::SpanningTree> trees{
      plan.trees()[0], plan.trees()[1], plan.trees()[1]};
  simnet::SimConfig cfg;
  cfg.packet_payload = 3;
  cfg.packet_header_flits = 2;
  const std::vector<long long> split{300, 2000, 2000};
  simnet::AllreduceSimulator sim(g, trees, cfg);
  std::optional<simnet::PeriodCertificate> period;
  const simnet::SimResult anchor = sim.run(split, &period);
  ASSERT_TRUE(period);
  const long long left = period->periods_left;
  for (const long long k : {1 - left, 2 - left, -1LL, 1LL, 4LL}) {
    std::vector<long long> shifted = split;
    for (std::size_t t = 0; t < split.size(); ++t) {
      shifted[t] += k * period->elements_per_period[t];
    }
    const simnet::SimResult run = sim.run(shifted);
    const std::string label = "k=" + std::to_string(k);
    EXPECT_EQ(run.cycles, anchor.cycles + k * period->period) << label;
    EXPECT_EQ(collectives::total_flits(run),
              collectives::total_flits(anchor) + k * period->flits_per_period)
        << label;
  }
}

// A random rooted tree on n vertices: each vertex after the first in a
// random order hangs off a random earlier one.
trees::SpanningTree random_tree(int n, util::Rng& rng) {
  std::vector<int> order(static_cast<std::size_t>(n));
  std::iota(order.begin(), order.end(), 0);
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[static_cast<std::size_t>(rng.next_below(i))]);
  }
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  for (std::size_t i = 1; i < order.size(); ++i) {
    parent[static_cast<std::size_t>(order[i])] =
        order[static_cast<std::size_t>(rng.next_below(i))];
  }
  return trees::SpanningTree(order[0], std::move(parent));
}

// The same tree under a random vertex relabeling.
trees::SpanningTree relabeled(const trees::SpanningTree& tree, util::Rng& rng) {
  const int n = tree.num_vertices();
  std::vector<int> pi(static_cast<std::size_t>(n));
  std::iota(pi.begin(), pi.end(), 0);
  for (std::size_t i = pi.size(); i > 1; --i) {
    std::swap(pi[i - 1], pi[static_cast<std::size_t>(rng.next_below(i))]);
  }
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  for (int v = 0; v < n; ++v) {
    const int p = tree.parent(v);
    if (p >= 0) {
      parent[static_cast<std::size_t>(pi[static_cast<std::size_t>(v)])] =
          pi[static_cast<std::size_t>(p)];
    }
  }
  return trees::SpanningTree(pi[static_cast<std::size_t>(tree.root())],
                             std::move(parent));
}

// The textbook AHU string of a rooted subtree: "(" + its children's
// strings, sorted + ")". Equal strings iff isomorphic rooted trees.
std::string ahu_string(const trees::SpanningTree& tree, int v) {
  std::vector<std::string> kids;
  for (const int c : tree.children(v)) kids.push_back(ahu_string(tree, c));
  std::sort(kids.begin(), kids.end());
  std::string out = "(";
  for (const auto& k : kids) out += k;
  return out + ")";
}

// Shape names agree with AHU strings on many small random trees, where
// equal and different shapes both come up often.
TEST(LaneCost, RootedShapeNamesMatchAhuStrings) {
  util::Rng rng(2105);
  trees::RootedShapes shapes;
  std::vector<std::pair<int, std::string>> seen;
  int equal_pairs = 0;
  for (int i = 0; i < 200; ++i) {
    const auto tree = random_tree(2 + static_cast<int>(rng.next_below(6)), rng);
    const int name = shapes.name(tree);
    const std::string ahu = ahu_string(tree, tree.root());
    for (const auto& [other_name, other_ahu] : seen) {
      EXPECT_EQ(name == other_name, ahu == other_ahu) << ahu << " " << other_ahu;
      equal_pairs += ahu == other_ahu ? 1 : 0;
    }
    seen.emplace_back(name, ahu);
  }
  EXPECT_GT(equal_pairs, 0);
}

// Random rooted trees embedded in a complete graph: a cost built on one
// embedding answers every relabeling of it exactly, on both engines, and
// the shape names tell isomorphism classes apart.
TEST(LaneCost, RandomRootedTreesShareAcrossRelabelings) {
  util::Rng rng(2103);
  for (const int n : {9, 16, 25}) {
    const graph::Graph g = topo::hyperx({n});
    for (int trial = 0; trial < 3; ++trial) {
      const trees::SpanningTree tree = random_tree(n, rng);
      const trees::SpanningTree twin = relabeled(tree, rng);
      trees::RootedShapes shapes;
      EXPECT_EQ(shapes.name(tree), shapes.name(twin));
      std::vector<int> path(static_cast<std::size_t>(n));
      for (int v = 1; v < n; ++v) path[static_cast<std::size_t>(v)] = v - 1;
      path[0] = -1;
      std::vector<int> star(static_cast<std::size_t>(n), 0);
      star[0] = -1;
      EXPECT_NE(shapes.name(trees::SpanningTree(0, std::move(path))),
                shapes.name(trees::SpanningTree(0, std::move(star))));

      simnet::SimConfig cfg;
      cfg.link_latency = 1 + static_cast<int>(rng.next_below(7));
      cfg.packet_payload = 1 + static_cast<int>(rng.next_below(4));
      cfg.vc_credits = 2 + static_cast<int>(rng.next_below(8));
      const std::string label = "n=" + std::to_string(n) + " trial " +
                                std::to_string(trial);
      const auto ms = sizes_around(g, {tree}, cfg, 2000, rng);
      ASSERT_FALSE(ms.empty()) << label << ": no certified period";
      expect_both_orders(g, {twin}, cfg, ms, label);
      collectives::TreeSetCost shared(g, {tree}, cfg);
      const auto answers =
          expect_direct(shared, g, {twin}, cfg, ms, label + " relabeled");
      EXPECT_GT(answers.shifted, 0) << label;

      simnet::SimConfig flow = cfg;
      flow.engine = simnet::SimEngine::kFlow;
      collectives::TreeSetCost flow_cost(g, {tree}, flow);
      const auto flow_answers = expect_direct(flow_cost, g, {twin}, flow, ms,
                                              label + " flow tier");
      EXPECT_EQ(flow_answers.shifted, 0) << label;
    }
  }
}

// Background traffic and a fault script both follow absolute time, so no
// run certifies a period and every answer is simulated or memoized.
TEST(LaneCost, NoShortcutUnderBackgroundOrFaults) {
  util::Rng rng(2104);
  const auto plan = make_plan(5, core::Solution::kEdgeDisjoint);
  const graph::Graph& g = plan.topology();
  const Trees lane{plan.trees()[0]};
  const auto ms = sizes_around(g, lane, simnet::SimConfig{}, 2500, rng);
  ASSERT_FALSE(ms.empty());
  // A link no tree of the lane uses.
  const auto tree_edges = lane[0].edges();
  graph::Edge spare = g.edges()[0];
  for (const graph::Edge& e : g.edges()) {
    if (std::find(tree_edges.begin(), tree_edges.end(), e) ==
        tree_edges.end()) {
      spare = e;
      break;
    }
  }
  simnet::SimConfig background;
  background.background.pattern = simnet::TrafficPattern::kUniform;
  background.background.load = 0.2;
  simnet::SimConfig faults;
  faults.faults.events.push_back(
      {300, spare.u, spare.v, simnet::FaultType::kLinkDown});
  faults.faults.events.push_back(
      {900, spare.u, spare.v, simnet::FaultType::kLinkUp});
  for (const auto& [cfg, name] :
       {std::pair{background, "background"}, std::pair{faults, "faults"}}) {
    EXPECT_FALSE(direct_run(g, lane, ms.front(), cfg).period) << name;
    const auto answers = expect_both_orders(g, lane, cfg, ms, name);
    EXPECT_EQ(answers.shifted, 0) << name;
  }
  // The resilient attempt loop never shifts either.
  simnet::SimConfig resilient = faults;
  resilient.progress_timeout = 2000;
  collectives::TreeSetCost cost(g, lane, resilient,
                                collectives::ResilienceConfig{});
  for (const long long m : ms) cost.cost(m);
  EXPECT_EQ(cost.answers().shifted, 0);
}

// A shift that would end past max_cycles is simulated instead, so it
// throws exactly what the direct run throws.
TEST(LaneCost, ShiftPastTheDeadlineSimulatesAndThrows) {
  const auto plan = make_plan(5, core::Solution::kEdgeDisjoint);
  const graph::Graph& g = plan.topology();
  const Trees lane{plan.trees()[0]};
  simnet::SimConfig cfg;
  const long long anchor_cycles = direct_run(g, lane, 2000, cfg).sim.cycles;
  cfg.max_cycles = anchor_cycles + 100;
  collectives::TreeSetCost cost(g, lane, cfg);
  EXPECT_EQ(cost.cost(2000).cycles, anchor_cycles);
  EXPECT_EQ(cost.cost(2050).cycles, direct_run(g, lane, 2050, cfg).sim.cycles);
  EXPECT_THROW(direct_run(g, lane, 3000, cfg), std::runtime_error);
  EXPECT_THROW(cost.cost(3000), std::runtime_error);
  EXPECT_EQ(cost.answers().shifted, 1);
}

}  // namespace
