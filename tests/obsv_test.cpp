// Tests for the observability layer (src/obsv): tracer ring buffer and
// Chrome JSON export, metrics registry and JSONL snapshot, run-report
// building, and the end-to-end properties the docs promise — traces of a
// deterministic simulation are byte-identical across runs and planner
// thread counts, and the metrics agree with SimResult's own accounting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/planner.hpp"
#include "obsv/metrics.hpp"
#include "obsv/recorder.hpp"
#include "obsv/report.hpp"
#include "oracle/reference_allreduce.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"

namespace {

using namespace pfar;

std::string trace_json_of(const obsv::Tracer& tracer) {
  std::ostringstream os;
  tracer.write_chrome_json(os);
  return os.str();
}

// Byte equality of two traces. A mismatch reports the first differing
// offset with some context: gtest's own string diff grows quadratically
// with the trace length.
void expect_same_trace(const std::string& product, const std::string& oracle,
                       const std::string& where) {
  const auto [p, o] = std::mismatch(product.begin(), product.end(),
                                    oracle.begin(), oracle.end());
  if (p == product.end() && o == oracle.end()) return;
  const auto at = static_cast<std::size_t>(p - product.begin());
  const std::size_t from = at < 100 ? 0 : at - 100;
  ADD_FAILURE() << where << ": traces differ at byte " << at
                << "\n  product: " << product.substr(from, 200)
                << "\n  oracle:  " << oracle.substr(from, 200);
}

std::string metrics_jsonl_of(const obsv::Metrics& metrics) {
  std::ostringstream os;
  metrics.write_jsonl(os);
  return os.str();
}

// --- Tracer ---------------------------------------------------------------

TEST(Tracer, RingBufferDropsBeyondCapacityKeepingThePrefix) {
  obsv::Tracer tracer(4);
  const std::uint32_t name = tracer.intern("ev");
  for (long long i = 0; i < 7; ++i) {
    tracer.complete(i, 1, name, obsv::kTrackSim, {"i", i});
  }
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 3u);

  long long dropped = -1;
  const auto events = obsv::parse_trace(trace_json_of(tracer), &dropped);
  EXPECT_EQ(dropped, 3);
  ASSERT_EQ(events.size(), 4u);
  // The prefix survives, not an arbitrary subset.
  for (std::size_t i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].ts, static_cast<long long>(i));
    EXPECT_EQ(events[i].args.at("i"), static_cast<long long>(i));
  }
}

TEST(Tracer, ChromeJsonRoundTripsEventsArgsAndTrackNames) {
  obsv::Tracer tracer;
  tracer.name_track(obsv::kTrackSim, "sim");
  tracer.name_track(obsv::kTrackLinkBase + 7, "link 3->4");
  const std::uint32_t busy = tracer.intern("busy");
  const std::uint32_t fault = tracer.intern("link_down");
  tracer.complete(10, 5, busy, obsv::kTrackLinkBase + 7);
  tracer.instant(12, fault, obsv::kTrackSim, {"u", 3}, {"v", 4});

  const std::string json = trace_json_of(tracer);
  const obsv::JsonValue doc = obsv::parse_json(json);  // must be valid JSON
  ASSERT_NE(doc.get("traceEvents"), nullptr);

  std::map<long long, std::string> track_names;
  const auto events = obsv::parse_trace(json, nullptr, &track_names);
  EXPECT_EQ(track_names.at(obsv::kTrackSim), "sim");
  EXPECT_EQ(track_names.at(obsv::kTrackLinkBase + 7), "link 3->4");
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_EQ(events[0].name, "busy");
  EXPECT_EQ(events[0].ts, 10);
  EXPECT_EQ(events[0].dur, 5);
  EXPECT_EQ(events[1].ph, 'i');
  EXPECT_EQ(events[1].name, "link_down");
  EXPECT_EQ(events[1].args.at("u"), 3);
  EXPECT_EQ(events[1].args.at("v"), 4);
}

TEST(Tracer, TimeOffsetShiftsSubsequentTimestamps) {
  obsv::Tracer tracer;
  const std::uint32_t name = tracer.intern("attempt");
  tracer.complete(5, 2, name, obsv::kTrackRecovery);
  tracer.set_time_offset(1000);
  tracer.complete(5, 2, name, obsv::kTrackRecovery);
  const auto events = obsv::parse_trace(trace_json_of(tracer));
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].ts, 5);
  EXPECT_EQ(events[1].ts, 1005);
}

TEST(Tracer, SerializationIsDeterministic) {
  const auto make = [] {
    obsv::Tracer tracer;
    tracer.name_track(obsv::kTrackTreeBase + 1, "tree 1");
    const std::uint32_t reduce = tracer.intern("reduce");
    tracer.complete(0, 100, reduce, obsv::kTrackTreeBase + 1, {"tree", 1});
    return trace_json_of(tracer);
  };
  EXPECT_EQ(make(), make());
}

// --- Metrics --------------------------------------------------------------

// obsv::nearest_rank is the one quantile the service stats report: the
// ceil(p/100 * n)-th smallest sample.
TEST(Metrics, NearestRankPicksTheCeilRankSample) {
  for (const int pct : {0, 50, 99, 100}) {
    EXPECT_EQ(obsv::nearest_rank({42}, pct), 42) << pct;
  }
  // n = 100, given unsorted: p99 is the 99th smallest, not the maximum.
  std::vector<long long> hundred(100);
  std::iota(hundred.rbegin(), hundred.rend(), 1);
  EXPECT_EQ(obsv::nearest_rank(hundred, 99), 99);
  EXPECT_EQ(obsv::nearest_rank(hundred, 100), 100);
  // Even n: p50 is the lower middle sample itself, never an average.
  EXPECT_EQ(obsv::nearest_rank({40, 10, 30, 20}, 50), 20);
  EXPECT_EQ(obsv::nearest_rank({40, 10, 30, 20}, 51), 30);
}

TEST(Metrics, CountersGaugesAndHistograms) {
  obsv::Metrics m;
  m.add("flits", 10);
  m.add("flits", 5);
  m.hwm("depth", 3);
  m.hwm("depth", 7);
  m.hwm("depth", 2);  // below the high-water mark: ignored
  m.observe("ms", 1.5);
  m.observe("ms", 0.5);
  EXPECT_EQ(m.counter("flits"), 15);
  EXPECT_EQ(m.gauge("depth"), 7);
  EXPECT_EQ(m.histogram_count("ms"), 2);
  EXPECT_TRUE(m.contains("flits"));
  EXPECT_FALSE(m.contains("absent"));
  EXPECT_EQ(m.size(), 3u);
}

TEST(Metrics, MixingKindsOnOneNameThrows) {
  obsv::Metrics m;
  m.add("x");
  EXPECT_THROW(m.hwm("x", 1), std::logic_error);
  EXPECT_THROW(m.observe("x", 1.0), std::logic_error);
}

TEST(Metrics, JsonlExportIsSortedValidAndTyped) {
  obsv::Metrics m;
  m.hwm("b.gauge", 4);
  m.add("a.counter", 2);
  m.observe("c.hist", 3.0);
  std::istringstream lines(metrics_jsonl_of(m));
  std::string line;
  std::vector<std::string> names, types;
  while (std::getline(lines, line)) {
    const obsv::JsonValue doc = obsv::parse_json(line);
    names.push_back(doc.str("name"));
    types.push_back(doc.str("type"));
  }
  EXPECT_EQ(names, (std::vector<std::string>{"a.counter", "b.gauge",
                                             "c.hist"}));
  EXPECT_EQ(types,
            (std::vector<std::string>{"counter", "gauge", "histogram"}));
}

// --- Run reports ----------------------------------------------------------

// The reader takes exactly RFC 8259 numbers: a malformed one is a parse
// error, never a prefix read as a value.
TEST(Report, JsonNumbersFollowRfc8259) {
  const std::pair<const char*, double> good[] = {
      {"0", 0.0},     {"-0", 0.0},     {"12", 12.0},  {"-3.25", -3.25},
      {"1e3", 1e3},   {"2E-2", 2e-2},  {"0.5e+1", 5.0}};
  for (const auto& [text, value] : good) {
    const obsv::JsonValue doc =
        obsv::parse_json(std::string("{\"a\": ") + text + "}");
    EXPECT_DOUBLE_EQ(doc.num("a", -1.0), value) << text;
  }
  for (const char* text :
       {"1-2", "3e", "--5", "-", "1.2.3", "+1", ".5", "01", "1."}) {
    EXPECT_THROW(obsv::parse_json(std::string("{\"a\": ") + text + "}"),
                 std::runtime_error)
        << text;
    EXPECT_THROW(obsv::parse_json(std::string("[") + text + "]"),
                 std::runtime_error)
        << text;
    EXPECT_THROW(obsv::parse_json(text), std::runtime_error) << text;
  }
}

TEST(Report, JoinsBusySpansToLinksViaTrackNames) {
  obsv::Recorder rec;
  rec.trace.name_track(obsv::kTrackLinkBase + 0, "link 0->1");
  const std::uint32_t busy = rec.trace.intern("busy");
  rec.trace.complete(0, 40, busy, obsv::kTrackLinkBase + 0);
  rec.trace.complete(60, 20, busy, obsv::kTrackLinkBase + 0);
  rec.metrics.add("link.0->1.flits", 60);
  rec.metrics.hwm("link.0->1.queue_hwm", 2);
  rec.metrics.hwm("sim.cycles", 100);

  const auto report =
      obsv::build_report(trace_json_of(rec.trace),
                         metrics_jsonl_of(rec.metrics));
  EXPECT_EQ(report.cycles, 100);
  ASSERT_EQ(report.links.size(), 1u);
  EXPECT_EQ(report.links[0].name, "0->1");
  EXPECT_EQ(report.links[0].flits, 60);
  EXPECT_EQ(report.links[0].busy_cycles, 60);  // both spans, one link row
  EXPECT_EQ(report.links[0].queue_hwm, 2);

  std::ostringstream os;
  obsv::render_report(report, os);
  EXPECT_NE(os.str().find("pfar run report"), std::string::npos);
  EXPECT_NE(os.str().find("0->1"), std::string::npos);
}

// --- End-to-end against the simulator ------------------------------------

TEST(ObsvIntegration, TraceIsByteIdenticalAcrossRunsAndPlannerThreads) {
  const auto run = [](int threads) {
    obsv::Recorder rec;
    const auto plan = core::AllreducePlanner(5).threads(threads).build();
    simnet::SimConfig config;
    config.recorder = &rec;
    const graph::Edge link = plan.topology().edge(0);
    config.faults.events = {
        {150, link.u, link.v, simnet::FaultType::kLinkDown},
        {400, link.u, link.v, simnet::FaultType::kLinkUp}};
    config.progress_timeout = 400;
    plan.simulate(512, config);
    return std::make_pair(trace_json_of(rec.trace),
                          metrics_jsonl_of(rec.metrics));
  };
  const auto a = run(1);
  const auto b = run(1);
  const auto c = run(4);
  EXPECT_EQ(a.first, b.first) << "trace differs between identical runs";
  EXPECT_EQ(a.first, c.first) << "trace depends on planner thread count";
  EXPECT_EQ(a.second, b.second);
  EXPECT_EQ(a.second, c.second);
  EXPECT_GT(obsv::parse_trace(a.first).size(), 0u);
}

TEST(ObsvIntegration, MetricsAgreeWithSimResultAccounting) {
  obsv::Recorder rec;
  const auto plan = core::AllreducePlanner(5).build();
  simnet::SimConfig config;
  config.recorder = &rec;
  // Take down a link tree 0 actually uses while it streams, so the
  // dropped/canceled accounting paths and cancellation all fire.
  const auto& parents = plan.trees()[0].parents();
  for (int v = 0; v < static_cast<int>(parents.size()); ++v) {
    const int p = parents[static_cast<std::size_t>(v)];
    if (p >= 0) {
      config.faults.events = {{200, v, p, simnet::FaultType::kLinkDown}};
      break;
    }
  }
  config.progress_timeout = 300;
  const auto res = plan.simulate(1024, config);
  const simnet::SimResult& sim = res.sim;

  ASSERT_GT(sim.dropped_packets, 0) << "fault setup produced no drops";
  EXPECT_EQ(rec.metrics.counter("sim.dropped_packets"), sim.dropped_packets);
  EXPECT_EQ(rec.metrics.counter("sim.dropped_flits"), sim.dropped_flits);
  EXPECT_EQ(rec.metrics.counter("sim.canceled_packets"),
            sim.canceled_packets);
  EXPECT_EQ(rec.metrics.counter("sim.canceled_flits"), sim.canceled_flits);
  EXPECT_EQ(rec.metrics.gauge("sim.cycles"), sim.cycles);
  EXPECT_EQ(rec.metrics.counter("sim.total_elements"), sim.total_elements);
  EXPECT_EQ(rec.metrics.gauge("sim.max_vc_occupancy"), sim.max_vc_occupancy);

  // Per-link flit metrics sum to the SimResult per-link totals.
  const long long total_flits = std::accumulate(
      sim.link_flits.begin(), sim.link_flits.end(), 0LL);
  long long metric_flits = 0;
  const graph::Graph& g = plan.topology();
  for (int e = 0; e < g.num_edges(); ++e) {
    const graph::Edge edge = g.edge(e);
    for (const auto& [u, v] : {std::pair{edge.u, edge.v},
                               std::pair{edge.v, edge.u}}) {
      metric_flits += rec.metrics.counter(
          "link." + std::to_string(u) + "->" + std::to_string(v) + ".flits");
    }
  }
  EXPECT_EQ(metric_flits, total_flits);

  // Per-tree completion metrics mirror the result vectors: healthy trees
  // report their finish cycle, failed trees the failure flag.
  for (int t = 0; t < plan.num_trees(); ++t) {
    const std::string prefix = "tree." + std::to_string(t) + ".";
    const auto ut = static_cast<std::size_t>(t);
    if (sim.tree_failed[ut] != 0) {
      EXPECT_EQ(rec.metrics.counter(prefix + "failed"), 1);
    } else {
      EXPECT_EQ(rec.metrics.gauge(prefix + "finish_cycle"),
                sim.tree_finish_cycle[ut]);
    }
  }
}

TEST(ObsvIntegration, EnginesAgreeOnTraceSpansAndFlitMetrics) {
  // The simulator and the reference oracle (tests/oracle) are
  // bit-identical in results; their traces must agree on everything
  // cycle-derived (busy spans, tree spans). Credit-stall and skipped-cycle
  // counts are loop-relative by design (docs/observability.md), so only
  // the trace is compared. The long run settles into a steady period that
  // the simulator skips in one jump: the observer replays the skipped
  // grants, so its busy spans still match the oracle's byte for byte.
  const auto plan = core::AllreducePlanner(5).build();
  const auto run = [&](bool use_oracle, long long m,
                       simnet::SimConfig config) {
    obsv::Recorder rec;
    config.recorder = &rec;
    if (use_oracle) {
      oracle::run_reference_allreduce(plan.topology(), plan.trees(), config,
                                      plan.split(m));
    } else {
      simnet::AllreduceSimulator(plan.topology(), plan.trees(), config)
          .run(plan.split(m));
    }
    return std::pair{trace_json_of(rec.trace),
                     rec.metrics.counter("sim.skipped_cycles")};
  };
  const simnet::SimConfig quiet;
  expect_same_trace(run(false, 256, quiet).first, run(true, 256, quiet).first,
                    "short quiet run");
  const auto product = run(false, 4000, quiet);
  const auto reference = run(true, 4000, quiet);
  expect_same_trace(product.first, reference.first, "long quiet run");
  EXPECT_EQ(reference.second, 0);
  EXPECT_GT(product.second, 0) << "the long run never jumped";

  // Background drains are busy cycles too. The simulator applies them per
  // link when it next visits the link, the oracle every cycle; the trace
  // must not tell the two apart, with or without a link down/up pair.
  simnet::SimConfig uniform;
  uniform.background.load = 0.3;
  expect_same_trace(run(false, 1500, uniform).first,
                    run(true, 1500, uniform).first, "uniform background");
  simnet::SimConfig permutation = uniform;
  permutation.background.pattern = simnet::TrafficPattern::kPermutation;
  permutation.progress_timeout = 400;
  const auto& t0 = plan.trees()[0].parents();
  for (int v = 0; v < static_cast<int>(t0.size()); ++v) {
    const int p = t0[static_cast<std::size_t>(v)];
    if (p < 0) continue;
    permutation.faults.events = {{150, v, p, simnet::FaultType::kLinkDown},
                                 {450, v, p, simnet::FaultType::kLinkUp}};
    break;
  }
  expect_same_trace(run(false, 1500, permutation).first,
                    run(true, 1500, permutation).first,
                    "permutation background with a link down/up");
}

TEST(ObsvIntegration, PlannerObserverRecordsPhaseTimers) {
  obsv::Recorder rec;
  core::AllreducePlanner(7)
      .solution(core::Solution::kEdgeDisjoint)
      .observer(&rec)
      .build();
  EXPECT_GE(rec.metrics.histogram_count("planner.topology_ms"), 1);
  EXPECT_GE(rec.metrics.histogram_count("planner.trees_ms"), 1);
  EXPECT_GE(rec.metrics.histogram_count("planner.bandwidths_ms"), 1);
}

TEST(ObsvIntegration, RecorderWritesParseableArtifactFiles) {
  obsv::Recorder rec;
  const auto plan = core::AllreducePlanner(3).build();
  simnet::SimConfig config;
  config.recorder = &rec;
  plan.simulate(64, config);

  const std::string dir = ::testing::TempDir();
  const std::string trace_path = dir + "/obsv_test_trace.json";
  const std::string metrics_path = dir + "/obsv_test_metrics.jsonl";
  rec.write_files(trace_path, metrics_path);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
  };
  const std::string trace = slurp(trace_path);
  const std::string metrics = slurp(metrics_path);
  ASSERT_FALSE(trace.empty());
  ASSERT_FALSE(metrics.empty());

  const auto report = obsv::build_report(trace, metrics);
  EXPECT_GT(report.cycles, 0);
  EXPECT_GT(report.trace_events, 0);
  ASSERT_FALSE(report.links.empty());
  EXPECT_GT(report.links[0].busy_cycles, 0);
  ASSERT_FALSE(report.trees.empty());
  EXPECT_GE(report.trees[0].finish_cycle, 0);
  std::remove(trace_path.c_str());
  std::remove(metrics_path.c_str());
}

}  // namespace
