// Tests for the congestion-adaptation layer (src/adapt) and the per-link
// counters it mirrors (docs/congestion_adaptation.md):
//
//  * Algorithm 1 on a capacitated network is bit-identical to the seed
//    scan in tests/oracle for every kind of scale, and validates them;
//  * the per-link metrics a traced run emits reproduce hand-computed
//    flits/busy cycles on a tiny scripted run and stay consistent through
//    the fault-cancel edge case;
//  * adapt_plan is the identity on a quiet network and produces valid,
//    never-predicted-worse plans on congested ones;
//  * run_adaptive_allreduce closes the loop end to end and emits the
//    adapt.* instrumentation.

#include <gtest/gtest.h>

#include <numeric>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "adapt/controller.hpp"
#include "collectives/innetwork.hpp"
#include "core/planner.hpp"
#include "graph/graph.hpp"
#include "model/congestion_model.hpp"
#include "obsv/recorder.hpp"
#include "obsv/report.hpp"
#include "oracle/reference_planning.hpp"
#include "simnet/allreduce_sim.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using namespace pfar;

// --- Capacitated Algorithm 1 ----------------------------------------------

// A random spanning tree of connected g: grown from a random root by
// attaching the far end of a uniformly drawn frontier edge.
trees::SpanningTree random_spanning_tree(const graph::Graph& g,
                                         util::Rng& rng) {
  const int n = g.num_vertices();
  const int root = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
  std::vector<int> parent(static_cast<std::size_t>(n), -1);
  std::vector<char> in_tree(static_cast<std::size_t>(n), 0);
  std::vector<std::pair<int, int>> frontier;  // (parent, child)
  const auto add = [&](int v) {
    in_tree[static_cast<std::size_t>(v)] = 1;
    for (const int w : g.neighbors(v)) {
      if (!in_tree[static_cast<std::size_t>(w)]) frontier.emplace_back(v, w);
    }
  };
  add(root);
  while (!frontier.empty()) {
    const std::size_t i = rng.next_below(frontier.size());
    const auto [p, v] = frontier[i];
    frontier[i] = frontier.back();
    frontier.pop_back();
    if (in_tree[static_cast<std::size_t>(v)]) continue;
    parent[static_cast<std::size_t>(v)] = p;
    add(v);
  }
  return trees::SpanningTree(root, std::move(parent));
}

// A connected random graph (a Hamiltonian path plus each other pair with
// probability p) carrying 1 to 8 random spanning trees.
struct TreeSet {
  graph::Graph g;
  std::vector<trees::SpanningTree> trees;
};

TreeSet random_tree_set(util::Rng& rng) {
  const int n = 2 + static_cast<int>(rng.next_below(30));
  const double p = 0.1 + 0.5 * rng.next_double();
  TreeSet set{graph::Graph(n), {}};
  for (int v = 0; v + 1 < n; ++v) set.g.add_edge(v, v + 1);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 2; v < n; ++v) {
      if (rng.next_double() < p) set.g.add_edge(u, v);
    }
  }
  set.g.finalize();
  const int k = 1 + static_cast<int>(rng.next_below(8));
  for (int t = 0; t < k; ++t) {
    set.trees.push_back(random_spanning_tree(set.g, rng));
  }
  return set;
}

// The fast path with per-edge budgets against the seed scan
// (tests/oracle): planner sets and random graphs, scales that are all 1.0,
// uniform random, tie-heavy (a few repeated values, so bottleneck ties
// are common) and mostly 1.0, and three link bandwidths. EXPECT_EQ on
// doubles on purpose: the contract is bit-identity.
TEST(CapacitatedAlg1, ScaledFastPathIsBitIdenticalToOracle) {
  std::vector<TreeSet> sets;
  for (int q : {3, 4, 5, 7, 8, 11, 13}) {
    for (const auto sol :
         {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
      const auto plan = core::AllreducePlanner(q).solution(sol).build();
      sets.push_back({plan.topology(), plan.trees()});
    }
  }
  util::Rng rng(23);
  for (int i = 0; i < 40; ++i) sets.push_back(random_tree_set(rng));

  const auto open_unit = [&] { return 1.0 - rng.next_double(); };  // (0, 1]
  const double few[] = {adapt::kMinCapacityScale, 0.25, 0.5, 1.0};
  for (std::size_t s = 0; s < sets.size(); ++s) {
    const graph::Graph& g = sets[s].g;
    const std::size_t edges = static_cast<std::size_t>(g.num_edges());
    for (int kind = 0; kind < 4; ++kind) {
      std::vector<double> scale(edges, 1.0);
      for (double& x : scale) {
        if (kind == 1) x = open_unit();
        if (kind == 2) x = few[rng.next_below(4)];
        if (kind == 3 && rng.next_below(10) == 0) x = open_unit();
      }
      for (double b : {1.0, 2.5, 3.0}) {
        const auto fast =
            model::compute_tree_bandwidths(g, sets[s].trees, b, scale);
        const auto ref = oracle::compute_tree_bandwidths_reference(
            g, sets[s].trees, b, scale);
        EXPECT_EQ(fast.per_tree, ref.per_tree)
            << "set " << s << " kind " << kind << " B=" << b;
        EXPECT_EQ(fast.aggregate, ref.aggregate)
            << "set " << s << " kind " << kind << " B=" << b;
      }
    }
  }
}

TEST(CapacitatedAlg1, ScalingDownAnEdgeNeverRaisesAggregate) {
  const auto plan = core::AllreducePlanner(7).build();
  const std::vector<double> unit(
      static_cast<std::size_t>(plan.topology().num_edges()), 1.0);
  const auto base = model::compute_tree_bandwidths(plan.topology(),
                                                   plan.trees(), 1.0, unit);
  for (int e = 0; e < plan.topology().num_edges(); e += 7) {
    auto scale = unit;
    scale[static_cast<std::size_t>(e)] = 0.25;
    const auto scaled = model::compute_tree_bandwidths(
        plan.topology(), plan.trees(), 1.0, scale);
    EXPECT_LE(scaled.aggregate, base.aggregate) << "edge " << e;
  }
}

TEST(CapacitatedAlg1, RejectsMalformedScales) {
  const auto plan = core::AllreducePlanner(3).build();
  const std::size_t edges =
      static_cast<std::size_t>(plan.topology().num_edges());
  EXPECT_THROW(model::compute_tree_bandwidths(
                   plan.topology(), plan.trees(), 1.0,
                   std::vector<double>(edges - 1, 1.0)),
               std::invalid_argument);
  std::vector<double> zero(edges, 1.0);
  zero[0] = 0.0;  // open interval: a dead link is min_capacity_scale's job
  EXPECT_THROW(model::compute_tree_bandwidths(plan.topology(), plan.trees(),
                                              1.0, zero),
               std::invalid_argument);
  std::vector<double> over(edges, 1.0);
  over[0] = 1.5;
  EXPECT_THROW(model::compute_tree_bandwidths(plan.topology(), plan.trees(),
                                              1.0, over),
               std::invalid_argument);
}

// --- CongestionMap --------------------------------------------------------

TEST(CongestionMap, FromSimResultComputesOccupancies) {
  const auto plan = core::AllreducePlanner(5).build();
  simnet::SimConfig cfg;
  cfg.background.pattern = simnet::TrafficPattern::kPermutation;
  cfg.background.load = 0.3;
  cfg.background.seed = 7;
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  const auto result = sim.run(plan.split(2000));

  const auto map =
      adapt::CongestionMap::from_sim_result(plan.topology(), result);
  ASSERT_EQ(map.dlinks.size(),
            static_cast<std::size_t>(2 * plan.topology().num_edges()));
  EXPECT_EQ(map.cycles, result.cycles);
  bool any_bg = false;
  for (std::size_t d = 0; d < map.dlinks.size(); ++d) {
    const auto& link = map.dlinks[d];
    EXPECT_EQ(link.flits, result.link_flits[d]);
    EXPECT_EQ(link.bg_flits, result.link_bg_flits[d]);
    EXPECT_EQ(link.queue_hwm, result.link_queue_hwm[d]);
    const double denom = static_cast<double>(result.cycles);
    EXPECT_DOUBLE_EQ(
        link.busy, static_cast<double>(link.flits + link.bg_flits) / denom);
    EXPECT_DOUBLE_EQ(link.bg_busy, static_cast<double>(link.bg_flits) / denom);
    any_bg = any_bg || link.bg_flits > 0;
  }
  EXPECT_TRUE(any_bg);

  // Edge aggregates are the max over the two directions.
  for (int e = 0; e < plan.topology().num_edges(); ++e) {
    const std::size_t lo = static_cast<std::size_t>(2 * e);
    EXPECT_DOUBLE_EQ(map.edge_bg_busy(e),
                     std::max(map.dlinks[lo].bg_busy,
                              map.dlinks[lo + 1].bg_busy));
    EXPECT_EQ(map.edge_queue_hwm(e),
              std::max(map.dlinks[lo].queue_hwm,
                       map.dlinks[lo + 1].queue_hwm));
  }
}

// --- Per-link metrics the controller's inputs mirror ---------------------

// The "u->v" names of the links that emitted per-link metrics.
std::set<std::string> metric_links(const obsv::Metrics& metrics) {
  std::set<std::string> links;
  for (const std::string& name : metrics.names("link.")) {
    links.insert(name.substr(5, name.rfind('.') - 5));
  }
  return links;
}

// Hand-computable scenario: a 3-node path, one BFS tree rooted at an end.
// Allreduce of m single-flit elements moves exactly m flits on each of the
// four directed links (m up the reduce, m down the broadcast), so each
// link's busy_cycles counter must be exactly m and its flits exactly m.
TEST(LinkWindows, MatchHandComputedValuesOnTinyRun) {
  graph::Graph path(3);
  path.add_edge(0, 1);
  path.add_edge(1, 2);
  path.finalize();
  const auto tree = collectives::bfs_tree(path, 0);
  const long long m = 100;

  simnet::SimConfig cfg;
  obsv::Recorder recorder;
  cfg.recorder = &recorder;
  const std::vector<trees::SpanningTree> trees{tree};
  simnet::AllreduceSimulator sim(path, trees, cfg);
  const auto result = sim.run({m});
  ASSERT_TRUE(result.values_correct);

  const obsv::Metrics& metrics = recorder.metrics;
  EXPECT_EQ(metrics.gauge("sim.cycles"), result.cycles);
  const std::set<std::string> links = metric_links(metrics);
  EXPECT_EQ(links, (std::set<std::string>{"0->1", "1->0", "1->2", "2->1"}));
  for (const std::string& link : links) {
    const std::string prefix = "link." + link;
    EXPECT_EQ(metrics.counter(prefix + ".flits"), m) << link;
    EXPECT_EQ(metrics.counter(prefix + ".busy_cycles"), m) << link;
    EXPECT_FALSE(metrics.contains(prefix + ".bg_flits")) << link;
    EXPECT_FALSE(metrics.contains(prefix + ".dropped_flits")) << link;
    EXPECT_GE(metrics.gauge(prefix + ".queue_hwm"), 1) << link;
    // The busy fraction a report prints: m of the run's cycles.
    EXPECT_DOUBLE_EQ(
        static_cast<double>(metrics.counter(prefix + ".busy_cycles")) /
            static_cast<double>(metrics.gauge("sim.cycles")),
        static_cast<double>(m) / static_cast<double>(result.cycles))
        << link;
  }
}

// Fault-cancel edge case on q=5: a permanent mid-run link failure cancels
// the affected trees. The per-link metrics must stay internally
// consistent — every per-link busy count within the run, the drops
// recorded on the downed link's two directions only — and the canceled
// run must still drive the controller.
TEST(LinkWindows, FaultCancelRunStaysConsistent) {
  const auto plan = core::AllreducePlanner(5).build();
  // A link some tree actually uses, so the failure cancels work.
  const auto tree_edges = plan.trees()[0].edges();
  ASSERT_FALSE(tree_edges.empty());
  const graph::Edge victim = tree_edges.front();

  simnet::SimConfig cfg;
  cfg.progress_timeout = 1500;
  cfg.faults.events.push_back(
      {200, victim.u, victim.v, simnet::FaultType::kLinkDown});
  obsv::Recorder recorder;
  cfg.recorder = &recorder;
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  const auto result = sim.run(plan.split(2000));

  long long failures = 0;
  for (char failed : result.tree_failed) failures += failed != 0 ? 1 : 0;
  ASSERT_GT(failures, 0);  // the script really canceled trees

  const obsv::Metrics& metrics = recorder.metrics;
  const long long cycles = metrics.gauge("sim.cycles");
  EXPECT_EQ(cycles, result.cycles);
  const std::set<std::string> links = metric_links(metrics);
  EXPECT_FALSE(links.empty());
  const std::set<std::string> victim_links = {
      std::to_string(victim.u) + "->" + std::to_string(victim.v),
      std::to_string(victim.v) + "->" + std::to_string(victim.u)};
  long long dropped = 0;
  for (const std::string& link : links) {
    const std::string prefix = "link." + link;
    const long long busy = metrics.counter(prefix + ".busy_cycles");
    EXPECT_GE(busy, 0) << link;
    EXPECT_LE(busy, cycles) << link;
    EXPECT_GE(metrics.counter(prefix + ".flits"), 0) << link;
    const long long link_dropped = metrics.counter(prefix + ".dropped_flits");
    if (victim_links.count(link) == 0) {
      EXPECT_EQ(link_dropped, 0) << link;
    }
    dropped += link_dropped;
  }
  EXPECT_EQ(dropped, result.dropped_flits);
  // The canceled run still drives the controller without tripping its
  // contracts.
  const auto map =
      adapt::CongestionMap::from_sim_result(plan.topology(), result);
  const auto adapted = adapt::adapt_plan(plan.topology(), plan.trees(), map);
  EXPECT_EQ(adapted.trees.size(), plan.trees().size());
}

// --- adapt_plan -----------------------------------------------------------

TEST(AdaptPlan, QuietNetworkIsTheIdentity) {
  const auto plan = core::AllreducePlanner(7).build();
  simnet::SimConfig cfg;  // no background traffic
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  const auto result = sim.run(plan.split(2000));
  const auto map =
      adapt::CongestionMap::from_sim_result(plan.topology(), result);

  const auto adapted = adapt::adapt_plan(plan.topology(), plan.trees(), map);
  EXPECT_TRUE(adapted.hot_links.empty());
  EXPECT_TRUE(adapted.replanned.empty());
  for (double s : adapted.capacity_scale) EXPECT_EQ(s, 1.0);
  // Bit-identical to the reference Algorithm 1: the whole adaptation layer
  // vanishes when the network is quiet.
  const auto ref = oracle::compute_tree_bandwidths_reference(
      plan.topology(), plan.trees(), 1.0);
  ASSERT_EQ(adapted.bandwidths.per_tree.size(), ref.per_tree.size());
  for (std::size_t i = 0; i < ref.per_tree.size(); ++i) {
    EXPECT_EQ(adapted.bandwidths.per_tree[i], ref.per_tree[i]);
  }
  EXPECT_EQ(adapted.bandwidths.aggregate, ref.aggregate);
}

TEST(AdaptPlan, CongestedNetworkProducesValidNeverWorsePlan) {
  const auto plan = core::AllreducePlanner(7).build();
  simnet::SimConfig cfg;
  cfg.background.pattern = simnet::TrafficPattern::kPermutation;
  cfg.background.load = 0.5;
  cfg.background.seed = 7;
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  const auto result = sim.run(plan.split(2000));
  const auto map =
      adapt::CongestionMap::from_sim_result(plan.topology(), result);

  const auto adapted = adapt::adapt_plan(plan.topology(), plan.trees(), map);
  ASSERT_EQ(adapted.capacity_scale.size(),
            static_cast<std::size_t>(plan.topology().num_edges()));
  for (double s : adapted.capacity_scale) {
    EXPECT_GE(s, adapt::kMinCapacityScale);
    EXPECT_LE(s, 1.0);
  }
  for (const auto& tree : adapted.trees) {
    EXPECT_TRUE(tree.is_spanning_tree_of(plan.topology()));
  }
  // The committed plan's capacitated bandwidth is never below the
  // re-weighted original's (the accept/reject gate).
  const auto reweighted = model::compute_tree_bandwidths(
      plan.topology(), plan.trees(), 1.0, adapted.capacity_scale);
  EXPECT_GE(adapted.bandwidths.aggregate, reweighted.aggregate);
}

// --- run_adaptive_allreduce ------------------------------------------------

TEST(AdaptiveAllreduce, ClosesTheLoopEndToEnd) {
  const auto plan = core::AllreducePlanner(7).build();
  simnet::SimConfig cfg;
  cfg.background.pattern = simnet::TrafficPattern::kPermutation;
  cfg.background.load = 0.5;
  cfg.background.seed = 7;
  const long long m = 20000;
  const auto res = adapt::run_adaptive_allreduce(plan.topology(),
                                                 plan.trees(), m, cfg,
                                                 /*compare_static=*/true);
  EXPECT_TRUE(res.compared);
  EXPECT_TRUE(res.adaptive.sim.values_correct);
  EXPECT_TRUE(res.static_run.sim.values_correct);
  EXPECT_EQ(res.adaptive.m, m);
  EXPECT_GT(res.probe.cycles, 0);
  EXPECT_GT(res.probe.background_flits, 0);
  // This configuration is the bench's headline point: adaptation wins big.
  EXPECT_GT(res.adaptive.sim.aggregate_bandwidth,
            res.static_run.sim.aggregate_bandwidth);
}

TEST(AdaptiveAllreduce, ProbeStageIsTheDriversFirstHalfAndSilent) {
  const auto plan = core::AllreducePlanner(7).build();
  simnet::SimConfig cfg;
  cfg.background.pattern = simnet::TrafficPattern::kPermutation;
  cfg.background.load = 0.5;
  cfg.background.seed = 7;
  obsv::Recorder recorder;
  cfg.recorder = &recorder;
  const auto stage = adapt::probe_and_adapt(plan.topology(), plan.trees(), cfg);
  EXPECT_EQ(recorder.trace.size(), 0u);
  EXPECT_EQ(recorder.metrics.size(), 0u);
  cfg.recorder = nullptr;
  const auto res =
      adapt::run_adaptive_allreduce(plan.topology(), plan.trees(), 4000, cfg);
  EXPECT_EQ(stage.probe.cycles, res.probe.cycles);
  EXPECT_EQ(stage.probe.link_flits, res.probe.link_flits);
  EXPECT_EQ(stage.plan.replanned, res.plan.replanned);
  EXPECT_EQ(stage.plan.bandwidths.per_tree, res.plan.bandwidths.per_tree);
  ASSERT_EQ(stage.plan.trees.size(), res.plan.trees.size());
  for (std::size_t t = 0; t < res.plan.trees.size(); ++t) {
    EXPECT_EQ(stage.plan.trees[t].parents(), res.plan.trees[t].parents());
  }
}

TEST(AdaptiveAllreduce, EmitsAdaptInstrumentation) {
  const auto plan = core::AllreducePlanner(7).build();
  simnet::SimConfig cfg;
  cfg.background.pattern = simnet::TrafficPattern::kPermutation;
  cfg.background.load = 0.5;
  cfg.background.seed = 7;
  obsv::Recorder recorder;
  cfg.recorder = &recorder;
  const auto res = adapt::run_adaptive_allreduce(plan.topology(),
                                                 plan.trees(), 4000, cfg);
  EXPECT_EQ(recorder.metrics.counter("adapt.probe_cycles"), res.probe.cycles);
  EXPECT_EQ(recorder.metrics.counter("adapt.hot_links"),
            static_cast<long long>(res.plan.hot_links.size()));
  EXPECT_EQ(recorder.metrics.counter("adapt.replanned_trees"),
            static_cast<long long>(res.plan.replanned.size()));

  // The adapt track's events land in the report's adaptation timeline.
  std::ostringstream trace_json, metrics_jsonl;
  recorder.trace.write_chrome_json(trace_json);
  recorder.metrics.write_jsonl(metrics_jsonl);
  const auto report =
      obsv::build_report(trace_json.str(), metrics_jsonl.str());
  EXPECT_FALSE(report.adapt.empty());
  std::ostringstream rendered;
  obsv::render_report(report, rendered);
  EXPECT_NE(rendered.str().find("congestion adaptation timeline"),
            std::string::npos);
}

}  // namespace
