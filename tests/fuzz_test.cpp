// Randomized cross-validation of the graph substrate against brute-force
// reference implementations on small random graphs, plus property checks
// on the performance model and host algorithms over randomized parameters,
// plus seeded random fault scripts against the resilient collective driver,
// plus seeded random job streams against the allreduce service.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "adapt/controller.hpp"
#include "collectives/host_allreduce.hpp"
#include "collectives/innetwork.hpp"
#include "collectives/resilient.hpp"
#include "core/planner.hpp"
#include "graph/graph.hpp"
#include "graph/matching.hpp"
#include "model/congestion_model.hpp"
#include "obsv/metrics.hpp"
#include "obsv/recorder.hpp"
#include "oracle/expect_same_result.hpp"
#include "oracle/reference_allreduce.hpp"
#include "service/service.hpp"
#include "simnet/allreduce_sim.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"

namespace pfar {
namespace {

graph::Graph random_graph(int n, double p, util::Rng& rng) {
  graph::Graph g(n);
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      if (rng.next_double() < p) g.add_edge(i, j);
    }
  }
  g.finalize();
  return g;
}

// Exponential-time exact maximum matching for tiny graphs.
int brute_force_matching(const graph::Graph& g) {
  const auto& edges = g.edges();
  const int m = static_cast<int>(edges.size());
  int best = 0;
  // Iterate subsets of edges (m <= ~16).
  for (int mask = 0; mask < (1 << m); ++mask) {
    if (__builtin_popcount(static_cast<unsigned>(mask)) <= best) continue;
    std::vector<char> used(static_cast<std::size_t>(g.num_vertices()), 0);
    bool ok = true;
    for (int e = 0; e < m && ok; ++e) {
      if (!(mask & (1 << e))) continue;
      if (used[static_cast<std::size_t>(edges[static_cast<std::size_t>(e)].u)] ||
          used[static_cast<std::size_t>(edges[static_cast<std::size_t>(e)].v)]) {
        ok = false;
      } else {
        used[static_cast<std::size_t>(edges[static_cast<std::size_t>(e)].u)] =
            used[static_cast<std::size_t>(edges[static_cast<std::size_t>(e)].v)] = 1;
      }
    }
    if (ok) best = __builtin_popcount(static_cast<unsigned>(mask));
  }
  return best;
}

TEST(FuzzMatching, BlossomMatchesBruteForce) {
  util::Rng rng(101);
  for (int iter = 0; iter < 40; ++iter) {
    // Keep edge count <= 16 for the brute force.
    graph::Graph g = random_graph(7, 0.35, rng);
    if (g.num_edges() > 16) continue;
    const auto mate = graph::maximum_matching(g);
    int size = 0;
    for (int v = 0; v < g.num_vertices(); ++v) {
      if (mate[static_cast<std::size_t>(v)] > v) ++size;
    }
    EXPECT_EQ(size, brute_force_matching(g)) << "iter " << iter;
  }
}

TEST(FuzzGraph, BfsMatchesFloydWarshall) {
  util::Rng rng(7);
  for (int iter = 0; iter < 20; ++iter) {
    graph::Graph g = random_graph(12, 0.3, rng);
    const int n = g.num_vertices();
    // Floyd-Warshall reference.
    constexpr int kInf = 1 << 20;
    std::vector<int> dist(static_cast<std::size_t>(n * n), kInf);
    for (int v = 0; v < n; ++v) dist[static_cast<std::size_t>(v * n + v)] = 0;
    for (const auto& e : g.edges()) {
      dist[static_cast<std::size_t>(e.u * n + e.v)] = dist[static_cast<std::size_t>(e.v * n + e.u)] = 1;
    }
    for (int k = 0; k < n; ++k) {
      for (int i = 0; i < n; ++i) {
        for (int j = 0; j < n; ++j) {
          dist[static_cast<std::size_t>(i * n + j)] = std::min(dist[static_cast<std::size_t>(i * n + j)],
                                     dist[static_cast<std::size_t>(i * n + k)] + dist[static_cast<std::size_t>(k * n + j)]);
        }
      }
    }
    for (int src = 0; src < n; ++src) {
      const auto bfs = g.bfs_distances(src);
      for (int v = 0; v < n; ++v) {
        const int expected = dist[static_cast<std::size_t>(src * n + v)] >= kInf ? -1 : dist[static_cast<std::size_t>(src * n + v)];
        EXPECT_EQ(bfs[static_cast<std::size_t>(v)], expected);
      }
    }
  }
}

TEST(FuzzModel, AlgorithmOneIsOrderIndependentAndConservative) {
  // Random spanning-tree subsets of random connected graphs: Algorithm 1
  // must (a) never overfill a link, (b) give every tree positive
  // bandwidth, (c) be invariant under tree permutation.
  util::Rng rng(55);
  for (int iter = 0; iter < 15; ++iter) {
    graph::Graph g = random_graph(10, 0.5, rng);
    if (!g.is_connected()) continue;
    // Build 3 random DFS-ish spanning trees (may overlap arbitrarily).
    std::vector<trees::SpanningTree> ts;
    for (int t = 0; t < 3; ++t) {
      std::vector<int> order(static_cast<std::size_t>(g.num_vertices()));
      std::iota(order.begin(), order.end(), 0);
      for (int i = g.num_vertices() - 1; i > 0; --i) {
        std::swap(order[static_cast<std::size_t>(i)], order[rng.next_below(static_cast<std::uint64_t>(i + 1))]);
      }
      const int root = order[0];
      std::vector<int> parent(static_cast<std::size_t>(g.num_vertices()), -1);
      std::vector<char> seen(static_cast<std::size_t>(g.num_vertices()), 0);
      seen[static_cast<std::size_t>(root)] = 1;
      std::vector<int> stack{root};
      while (!stack.empty()) {
        const int u = stack.back();
        stack.pop_back();
        for (int w : g.neighbors(u)) {
          if (!seen[static_cast<std::size_t>(w)]) {
            seen[static_cast<std::size_t>(w)] = 1;
            parent[static_cast<std::size_t>(w)] = u;
            stack.push_back(w);
          }
        }
      }
      ts.emplace_back(root, std::move(parent));
    }
    const auto bw = model::compute_tree_bandwidths(g, ts, 1.0);
    for (double b : bw.per_tree) {
      EXPECT_GT(b, 0.0);
      EXPECT_LE(b, 1.0 + 1e-9);
    }
    // Conservation per link.
    std::vector<double> load(static_cast<std::size_t>(g.num_edges()), 0.0);
    for (std::size_t t = 0; t < ts.size(); ++t) {
      for (const auto& e : ts[t].edges()) {
        load[static_cast<std::size_t>(g.edge_id(e.u, e.v))] += bw.per_tree[t];
      }
    }
    for (double l : load) EXPECT_LE(l, 1.0 + 1e-9);
    // Permutation invariance.
    std::vector<trees::SpanningTree> reversed(ts.rbegin(), ts.rend());
    const auto bw2 = model::compute_tree_bandwidths(g, reversed, 1.0);
    for (std::size_t t = 0; t < ts.size(); ++t) {
      EXPECT_NEAR(bw.per_tree[t], bw2.per_tree[ts.size() - 1 - t], 1e-9);
    }
  }
}

TEST(FuzzHostAlgorithms, RandomSizesStayCorrect) {
  util::Rng rng(77);
  for (int iter = 0; iter < 25; ++iter) {
    const int p = 2 + static_cast<int>(rng.next_below(30));
    const long long m = 1 + static_cast<long long>(rng.next_below(100));
    for (auto algo : {collectives::HostAlgorithm::kRing,
                      collectives::HostAlgorithm::kRecursiveDoubling,
                      collectives::HostAlgorithm::kHalvingDoubling}) {
      collectives::DataExecutor exec(p, m);
      collectives::run_host_allreduce(algo, p, m, exec);
      EXPECT_TRUE(exec.verify())
          << "algo " << static_cast<int>(algo) << " p=" << p << " m=" << m;
    }
  }
}

TEST(FuzzFaults, RandomRecoverableScriptsAlwaysEndCorrect) {
  // Seeded random fault scripts that leave the quadric connected (ER_q has
  // min degree q; dropping <= 2 links never disconnects it): the resilient
  // driver must always finish with every value exact, whatever the timing.
  const auto plan = core::AllreducePlanner(5).build();
  const auto& edges = plan.topology().edges();
  util::Rng rng(2024);
  for (int iter = 0; iter < 12; ++iter) {
    simnet::SimConfig cfg;
    cfg.progress_timeout = 400;
    cfg.max_cycles = 200000;
    const int downs = 1 + static_cast<int>(rng.next_below(2));
    for (int d = 0; d < downs; ++d) {
      const auto& e = edges[static_cast<std::size_t>(
          rng.next_below(static_cast<std::uint64_t>(edges.size())))];
      const long long at = 50 + static_cast<long long>(rng.next_below(600));
      cfg.faults.events.push_back(
          {at, e.u, e.v, simnet::FaultType::kLinkDown});
      if (rng.next_below(2) == 0) {
        // Transient: link comes back later; losses (if any) still force a
        // replay, but the link is only excluded if it ate packets.
        cfg.faults.events.push_back(
            {at + 100 + static_cast<long long>(rng.next_below(400)), e.u,
             e.v, simnet::FaultType::kLinkUp});
      }
    }
    const long long m = 500 + static_cast<long long>(rng.next_below(1500));

    const auto stats = collectives::run_resilient_allreduce(
        plan.topology(), plan.trees(), m, cfg);
    EXPECT_TRUE(stats.recovered) << "iter " << iter;
    EXPECT_TRUE(stats.values_correct) << "iter " << iter;
    EXPECT_LE(stats.attempts, 1 + collectives::ResilienceConfig::max_retries)
        << "iter " << iter;
  }
}

TEST(FuzzFaults, DisconnectingScriptFailsLoudlyAndBounded) {
  // Cut every link of one vertex: no degraded plan exists. The driver must
  // fail with the structured contract error, well before max_cycles —
  // never hang.
  const auto plan = core::AllreducePlanner(5).build();
  const graph::Graph& g = plan.topology();
  util::Rng rng(4096);
  for (int iter = 0; iter < 3; ++iter) {
    const int victim =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(
            g.num_vertices())));
    simnet::SimConfig cfg;
    cfg.progress_timeout = 400;
    cfg.max_cycles = 100000;
    for (int w : g.neighbors(victim)) {
      cfg.faults.events.push_back(
          {100, victim, w, simnet::FaultType::kLinkDown});
    }
    const auto run = [&] {
      static_cast<void>(collectives::run_resilient_allreduce(
          g, plan.trees(), 800, cfg));
    };
    pfar::util::contracts::ScopedThrowHandler guard;
    try {
      run();
      FAIL() << "unrecoverable script did not fail, iter " << iter;
    } catch (const pfar::util::contracts::ContractViolation& v) {
      EXPECT_EQ(v.kind(), "REQUIRE") << "iter " << iter;
      EXPECT_NE(std::string(v.what()).find("unrecoverable"),
                std::string::npos)
          << v.what();
    }
  }
}

TEST(FuzzFaults, UndetectedLossDeadlocksInsteadOfHanging) {
  // Detection disabled (progress_timeout == 0): a lost packet must surface
  // as the simulator's deadlock exception at stall_limit, not as a hang or
  // a silent wrong answer.
  const auto plan = core::AllreducePlanner(5).build();
  const auto& tree0 = plan.trees()[0];
  int v = 0;
  while (tree0.parents()[static_cast<std::size_t>(v)] < 0) ++v;
  simnet::SimConfig cfg;
  cfg.stall_limit = 2000;
  cfg.faults.events.push_back(
      {200, v, tree0.parents()[static_cast<std::size_t>(v)],
       simnet::FaultType::kLinkDown});
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(), cfg);
  EXPECT_THROW(static_cast<void>(sim.run(plan.split(1000))),
               std::runtime_error);
  EXPECT_THROW(static_cast<void>(oracle::run_reference_allreduce(
                   plan.topology(), plan.trees(), cfg, plan.split(1000))),
               std::runtime_error);
}

TEST(FuzzSimulator, SettledRandomConfigsMatchTheOracle) {
  // Seeded random link, buffer and packet settings on runs long enough to
  // settle, so the product usually skips steady periods in one jump while
  // the oracle simulates every cycle: results (or the thrown message, for
  // a short max_cycles) must agree exactly. A third of the runs lose a
  // random link mid-stream. Each config then runs again under drawn
  // background traffic (pattern, load, packet length), from a second
  // stream so the quiet draws stay as they were.
  util::Rng rng(18);
  util::Rng bg_rng(19);
  const core::Solution solutions[] = {core::Solution::kLowDepth,
                                      core::Solution::kEdgeDisjoint,
                                      core::Solution::kSingleTree};
  const simnet::TrafficPattern patterns[] = {
      simnet::TrafficPattern::kUniform, simnet::TrafficPattern::kPermutation,
      simnet::TrafficPattern::kHotspot};
  const auto pick_from = [](util::Rng& r, int lo, int count) {
    return lo + static_cast<int>(
                    r.next_below(static_cast<std::uint64_t>(count)));
  };
  const auto pick = [&](int lo, int count) {
    return pick_from(rng, lo, count);
  };
  for (int iter = 0; iter < 12; ++iter) {
    const auto plan = core::AllreducePlanner(iter % 3 == 0 ? 3 : 5)
                          .solution(solutions[pick(0, 3)])
                          .build();
    simnet::SimConfig cfg;
    cfg.packet_payload = pick(1, 4);
    cfg.packet_header_flits = pick(0, 3);
    cfg.vc_credits = pick(1, 8);
    cfg.link_latency = pick(0, 9);
    // The fork buffer is fixed; this draw stays so every later draw of the
    // seed, and so each config, stays where it is.
    static_cast<void>(pick(1, 4));
    const long long m = pick(1000, 5000);
    const auto& edges = plan.topology().edges();
    if (pick(0, 3) == 0) {
      const auto& e = edges[static_cast<std::size_t>(
          pick(0, static_cast<int>(edges.size())))];
      const long long at = pick(50, 3000);
      cfg.progress_timeout = pick(200, 600);
      cfg.faults.events.push_back(
          {at, e.u, e.v, simnet::FaultType::kLinkDown});
      if (pick(0, 2) == 0) {
        cfg.faults.events.push_back(
            {at + pick(1, 500), e.u, e.v, simnet::FaultType::kLinkUp});
      }
    }
    if (pick(0, 6) == 0) cfg.max_cycles = pick(500, 3000);

    simnet::SimConfig loaded = cfg;
    loaded.background.pattern = patterns[pick_from(bg_rng, 0, 3)];
    loaded.background.load = 0.1 + 0.5 * bg_rng.next_double();
    // The background packet size is fixed; this draw stays so every later
    // draw of the seed, and so each config, stays where it is.
    static_cast<void>(pick_from(bg_rng, 1, 4));
    loaded.background.seed = bg_rng.next();

    const auto run = [&](const simnet::SimConfig& c, bool use_oracle,
                         std::string& error) {
      try {
        return use_oracle ? oracle::run_reference_allreduce(
                                plan.topology(), plan.trees(), c, plan.split(m))
                          : simnet::AllreduceSimulator(plan.topology(),
                                                       plan.trees(), c)
                                .run(plan.split(m));
      } catch (const std::runtime_error& ex) {
        error = ex.what();
        return simnet::SimResult{};
      }
    };
    for (const auto& [config, label] :
         {std::pair{cfg, "quiet"}, std::pair{loaded, "background"}}) {
      const std::string where =
          "iter " + std::to_string(iter) + " " + label;
      std::string reference_error;
      const auto reference = run(config, true, reference_error);
      std::string error;
      const auto result = run(config, false, error);
      EXPECT_EQ(error, reference_error) << where;
      oracle::expect_same_result(result, reference, where);
    }
  }
}

TEST(FuzzApportion, AlwaysSumsAndRespectsMonotonicity) {
  util::Rng rng(31);
  for (int iter = 0; iter < 50; ++iter) {
    const int k = 1 + static_cast<int>(rng.next_below(8));
    std::vector<double> weights(static_cast<std::size_t>(k));
    for (auto& w : weights) w = rng.next_double() + 0.01;
    const long long total = static_cast<long long>(rng.next_below(100000));
    const auto split = util::apportion(total, weights);
    EXPECT_EQ(std::accumulate(split.begin(), split.end(), 0LL), total);
    const double sum =
        std::accumulate(weights.begin(), weights.end(), 0.0);
    for (int i = 0; i < k; ++i) {
      // Largest-remainder stays within 1 of the exact quota.
      const double quota =
          static_cast<double>(total) * weights[static_cast<std::size_t>(i)] / sum;
      EXPECT_GE(split[static_cast<std::size_t>(i)], static_cast<long long>(quota) - 1);
      EXPECT_LE(split[static_cast<std::size_t>(i)], static_cast<long long>(quota) + 1);
    }
  }
}

// --- Congestion controller properties (docs/congestion_adaptation.md) -----

// Randomized background traffic against the full control loop. Three
// properties must hold for every seed/pattern/load draw:
//   1. the re-weighted split the adaptive run used sums to exactly m and
//      matches optimal_split over the adapted bandwidths;
//   2. every tree in the adapted plan is a spanning tree of the topology,
//      and a plan whose original trees were edge-disjoint stays
//      edge-disjoint after re-planning;
//   3. the adaptive run's measured bandwidth is never worse than the
//      static run's beyond a pinned tolerance (the accept/reject gate in
//      adapt_plan commits a re-plan only when the capacitated model says
//      it strictly wins).
TEST(FuzzAdapt, ControllerPropertiesUnderRandomBackground) {
  // Simulated bandwidth is not exactly the capacitated model's objective,
  // so allow the adaptive run this much slack vs static before failing.
  constexpr double kTolerance = 0.02;
  util::Rng rng(53);
  const simnet::TrafficPattern patterns[] = {
      simnet::TrafficPattern::kUniform, simnet::TrafficPattern::kPermutation,
      simnet::TrafficPattern::kHotspot};
  for (int iter = 0; iter < 12; ++iter) {
    const int q = (iter % 2 == 0) ? 7 : 5;
    const auto sol = (iter % 4 < 2) ? core::Solution::kLowDepth
                                    : core::Solution::kEdgeDisjoint;
    const auto plan = core::AllreducePlanner(q).solution(sol).build();
    const bool originally_disjoint =
        trees::edge_disjoint(plan.topology(), plan.trees());

    simnet::SimConfig cfg;
    cfg.background.pattern = patterns[rng.next_below(3)];
    cfg.background.load = 0.1 + 0.5 * rng.next_double();
    cfg.background.seed = rng.next();
    // The hotspot fraction is fixed; this draw stays so every later draw
    // of the seed, and so each config, stays where it is.
    static_cast<void>(rng.next_double());
    const long long m = 4000 + static_cast<long long>(rng.next_below(8000));

    const auto res = adapt::run_adaptive_allreduce(
        plan.topology(), plan.trees(), m, cfg, /*compare_static=*/true);

    // Property 1: split integrity.
    EXPECT_EQ(std::accumulate(res.adaptive.split.begin(),
                              res.adaptive.split.end(), 0LL),
              m)
        << "iter " << iter;
    EXPECT_EQ(res.adaptive.split,
              model::optimal_split(m, res.plan.bandwidths))
        << "iter " << iter;
    for (long long s : res.adaptive.split) EXPECT_GE(s, 0) << "iter " << iter;

    // Property 2: structural validity of the adapted plan
    // (pfar_audit-style: spanning + disjointness preserved).
    ASSERT_EQ(res.plan.trees.size(), plan.trees().size()) << "iter " << iter;
    for (const auto& tree : res.plan.trees) {
      EXPECT_TRUE(tree.is_spanning_tree_of(plan.topology()))
          << "iter " << iter;
    }
    if (originally_disjoint) {
      EXPECT_TRUE(trees::edge_disjoint(plan.topology(), res.plan.trees))
          << "iter " << iter;
    }

    // Property 3: never meaningfully worse than static.
    ASSERT_TRUE(res.compared) << "iter " << iter;
    EXPECT_TRUE(res.adaptive.sim.values_correct) << "iter " << iter;
    EXPECT_TRUE(res.static_run.sim.values_correct) << "iter " << iter;
    EXPECT_GE(res.adaptive.sim.aggregate_bandwidth,
              res.static_run.sim.aggregate_bandwidth * (1.0 - kTolerance))
        << "iter " << iter << " pattern "
        << static_cast<int>(cfg.background.pattern) << " load "
        << cfg.background.load;
  }
}

// --- Service streams ---------------------------------------------------------
//
// Seeded random job streams (several tenants, both operators, priorities,
// zero-element jobs, same-cycle bursts, a second submit/drain round with
// jobs dated in the past) through every scheduler policy. The service
// charges nothing but simulation, so every batch's duration must equal a
// direct simulation of its lane's run at the batch's fused size (not a
// TreeSetCost, whose memo, lane sharing and period shifts are what is
// under test), and every statistic must follow from the records.

std::vector<service::JobSpec> random_stream(util::Rng& rng, int jobs,
                                            long long first_arrival,
                                            long long max_elements = 1500) {
  std::vector<service::JobSpec> out;
  long long t = first_arrival;
  while (static_cast<int>(out.size()) < jobs) {
    t += static_cast<long long>(rng.next_below(300));
    // A burst: 1-6 jobs arriving in the same cycle.
    const int burst = 1 + static_cast<int>(rng.next_below(6));
    for (int b = 0; b < burst && static_cast<int>(out.size()) < jobs; ++b) {
      service::JobSpec spec;
      spec.tenant = static_cast<int>(rng.next_below(4));
      spec.elements = rng.next_below(8) == 0
                          ? 0
                          : 1 + static_cast<long long>(rng.next_below(
                                    static_cast<std::uint64_t>(max_elements)));
      spec.op = rng.next_below(2) == 0 ? service::ReduceOp::kSum
                                       : service::ReduceOp::kMax;
      spec.priority = static_cast<int>(rng.next_below(3));
      spec.arrival_cycle = t;
      out.push_back(spec);
    }
  }
  return out;
}

struct ServiceRun {
  std::vector<service::JobRecord> records;
  service::ServiceStats stats;
  std::vector<std::vector<int>> lane_trees;
  long long completed_counter = 0;  // service.jobs.completed
  long long shifted_counter = 0;    // service.lane_runs.shifted
};

ServiceRun run_service_stream(const core::AllreducePlan& plan,
                              const service::ServiceConfig& base,
                              const std::vector<service::JobSpec>& first,
                              const std::vector<service::JobSpec>& second) {
  obsv::Recorder recorder;
  service::ServiceConfig config = base;
  config.sim.recorder = &recorder;
  service::AllreduceService svc(plan, config);
  for (const auto& spec : first) svc.submit(spec);
  svc.drain();
  // Second round: resumes the clock; jobs dated before it are clamped.
  for (const auto& spec : second) svc.submit(spec);
  svc.drain();
  ServiceRun run;
  run.records = svc.records();
  run.stats = svc.stats();
  for (int l = 0; l < svc.num_lanes(); ++l) {
    run.lane_trees.push_back(svc.lane_trees(l));
  }
  run.completed_counter = recorder.metrics.counter("service.jobs.completed");
  run.shifted_counter = recorder.metrics.counter("service.lane_runs.shifted");
  return run;
}

auto record_tuple(const service::JobRecord& r) {
  return std::make_tuple(r.spec.tenant, r.spec.elements,
                         static_cast<int>(r.spec.op), r.spec.priority,
                         r.spec.arrival_cycle, r.rejected, r.completed,
                         r.admit_cycle, r.start_cycle, r.finish_cycle, r.lane,
                         r.batch_jobs);
}

TEST(FuzzService, BatchesCostExactlyTheirLaneSimulation) {
  util::Rng rng(71);
  const service::SchedulerPolicy policies[] = {
      service::SchedulerPolicy::kSerial,
      service::SchedulerPolicy::kPartitioned,
      service::SchedulerPolicy::kPartitionedBatched};
  const auto plan =
      core::AllreducePlanner(5).solution(core::Solution::kEdgeDisjoint).build();
  // The smallest fused size a one-tree lane's period answers from a large
  // anchor: iterations 4 and 5 draw jobs around it, so fused sizes fall on
  // both sides.
  const std::vector<trees::SpanningTree> one_lane{plan.trees()[0]};
  const auto run_lane = [&](const std::vector<trees::SpanningTree>& trees,
                            long long m, const simnet::SimConfig& cfg) {
    const auto bw = model::compute_tree_bandwidths(plan.topology(), trees, 1.0);
    return collectives::run_planned_allreduce(
        plan.topology(), trees, model::optimal_split(m, bw), bw, cfg);
  };
  const auto anchor = run_lane(one_lane, 4000, simnet::SimConfig{});
  ASSERT_TRUE(anchor.period);
  const long long threshold =
      4000 - (anchor.period->periods_left - 1) *
                 anchor.period->elements_per_period[0];
  for (int iter = 0; iter < 6; ++iter) {
    const long long max_elements = iter < 4 ? 1500 : 2 * threshold;
    const auto first = random_stream(rng, 40, 0, max_elements);
    // Dated from cycle 0 again: most of it lands in the first round's past.
    const auto second = random_stream(rng, 15, 0, max_elements);
    for (const auto policy : policies) {
      service::ServiceConfig config;
      config.policy = policy;
      config.max_queue_jobs = iter % 2 == 0 ? 4 : 1024;
      config.batch_max_jobs = 1 + static_cast<int>(rng.next_below(8));
      const ServiceRun run = run_service_stream(plan, config, first, second);
      const std::string where = "iter " + std::to_string(iter) + " policy " +
                                service::to_string(policy);
      ASSERT_EQ(run.records.size(), first.size() + second.size()) << where;

      // Each lane's trees, and its direct runs, once per fused size.
      std::vector<std::vector<trees::SpanningTree>> lane_trees;
      for (const auto& ids : run.lane_trees) {
        lane_trees.emplace_back();
        for (int t : ids) {
          lane_trees.back().push_back(
              plan.trees()[static_cast<std::size_t>(t)]);
        }
      }
      std::map<std::pair<int, long long>, collectives::InNetworkResult> runs;
      const auto lane_run = [&](int lane, long long m)
          -> const collectives::InNetworkResult& {
        auto it = runs.find({lane, m});
        if (it == runs.end()) {
          it = runs.emplace(std::pair{lane, m},
                            run_lane(lane_trees[static_cast<std::size_t>(lane)],
                                     m, config.sim))
                   .first;
        }
        return it->second;
      };

      // Per-job lifecycle, and batches keyed by (lane, start).
      struct BatchSeen {
        long long finish = 0;
        long long elements = 0;
        int jobs = 0;
        int batch_jobs = 0;
      };
      std::map<std::pair<int, long long>, BatchSeen> batches;
      int admitted = 0, rejected = 0, completed = 0;
      long long makespan = 0;
      std::vector<long long> sojourns;
      for (const auto& r : run.records) {
        if (r.rejected) {
          ++rejected;
          EXPECT_FALSE(r.completed) << where;
          EXPECT_EQ(r.admit_cycle, -1) << where;
          continue;
        }
        ++admitted;
        // Every admitted job completes, admitted at its (clamped) arrival.
        ASSERT_TRUE(r.completed) << where;
        ++completed;
        EXPECT_EQ(r.admit_cycle, r.spec.arrival_cycle) << where;
        EXPECT_LE(r.admit_cycle, r.start_cycle) << where;
        EXPECT_LE(r.start_cycle, r.finish_cycle) << where;
        makespan = std::max(makespan, r.finish_cycle);
        sojourns.push_back(r.finish_cycle - r.admit_cycle);
        if (r.lane < 0) {
          // Only a zero-element job skips the fabric: no cycles. (One may
          // also ride a fused batch as a companion.)
          EXPECT_EQ(r.spec.elements, 0) << where;
          EXPECT_EQ(r.start_cycle, r.finish_cycle) << where;
          EXPECT_EQ(r.batch_jobs, 1) << where;
          continue;
        }
        ASSERT_LT(r.lane, static_cast<int>(run.lane_trees.size())) << where;
        BatchSeen& b = batches[{r.lane, r.start_cycle}];
        if (b.jobs > 0) {
          EXPECT_EQ(b.finish, r.finish_cycle) << where;
        }
        b.finish = r.finish_cycle;
        b.elements += r.spec.elements;
        b.batch_jobs = r.batch_jobs;
        ++b.jobs;
      }
      EXPECT_EQ(run.completed_counter, completed)
          << where;  // each completion delivered exactly once
      if (iter >= 4 && policy != service::SchedulerPolicy::kSerial) {
        // One-tree lanes: fused sizes past the threshold were shifted.
        EXPECT_GT(run.shifted_counter, 0) << where;
      }

      int coalesced = 0;
      long long flits = 0;
      std::map<int, long long> lane_free;  // lane -> previous batch's finish
      for (const auto& [key, b] : batches) {
        const auto& [lane, start] = key;
        EXPECT_EQ(b.jobs, b.batch_jobs) << where;
        EXPECT_LE(b.jobs, config.batch_max_jobs) << where;
        if (policy != service::SchedulerPolicy::kPartitionedBatched) {
          EXPECT_EQ(b.jobs, 1) << where;
        }
        EXPECT_GT(b.elements, 0) << where;  // a zero-element seed runs alone
        if (b.jobs > 1) coalesced += b.jobs;
        // The batch's duration is exactly its lane's simulation.
        const collectives::InNetworkResult& direct = lane_run(lane, b.elements);
        EXPECT_TRUE(direct.sim.values_correct &&
                    collectives::undelivered_elements(direct) == 0)
            << where;
        EXPECT_EQ(b.finish - start, direct.sim.cycles)
            << where << " lane " << lane << " m " << b.elements;
        flits += collectives::total_flits(direct.sim);
        // Batches on one lane never overlap ((lane, start) keys ascend).
        const auto it = lane_free.find(lane);
        if (it != lane_free.end()) {
          EXPECT_LE(it->second, start) << where << " lane " << lane;
        }
        lane_free[lane] = b.finish;
      }

      const service::ServiceStats& s = run.stats;
      EXPECT_EQ(s.submitted, static_cast<int>(run.records.size())) << where;
      EXPECT_EQ(s.admitted, admitted) << where;
      EXPECT_EQ(s.rejected, rejected) << where;
      EXPECT_EQ(s.completed, completed) << where;
      EXPECT_EQ(s.batches, static_cast<int>(batches.size())) << where;
      EXPECT_EQ(s.coalesced_jobs, coalesced) << where;
      EXPECT_EQ(s.total_flits, flits) << where;
      EXPECT_EQ(s.makespan_cycles, makespan) << where;
      EXPECT_TRUE(s.values_correct) << where;
      if (!sojourns.empty()) {
        EXPECT_EQ(s.p50_cycles, obsv::nearest_rank(sojourns, 50)) << where;
        EXPECT_EQ(s.p99_cycles, obsv::nearest_rank(sojourns, 99)) << where;
      }

      // The same stream again gives identical records.
      const ServiceRun again = run_service_stream(plan, config, first, second);
      ASSERT_EQ(again.records.size(), run.records.size()) << where;
      for (std::size_t i = 0; i < run.records.size(); ++i) {
        EXPECT_EQ(record_tuple(again.records[i]), record_tuple(run.records[i]))
            << where << " job " << i;
      }
    }
  }
}

}  // namespace
}  // namespace pfar
