// Trace-driven training replay (src/workload, docs/training_replay.md):
//
//  * the trace model: seeded synthesis is deterministic, JSON round-trips
//    exactly, schema violations are rejected, and bucketization partitions
//    the gradients back-to-front with monotone release offsets;
//  * the replay engine: bit-identical across runs,
//    overlap strictly beats the serialized baseline, stragglers stretch
//    the epoch without touching the fabric-side fields;
//  * one communication path: kSingle is the service's serial lane, equal
//    field for field to the one-lane FIFO it replaced; fault scripts ride
//    that lane's resilient driver, background traffic flows through every
//    lane, and the partitioned lanes (kService) reject fault scripts by
//    contract;
//  * observability: the replay emits the kTrackWorkload timeline and
//    workload.* counters, and pfar_report renders the training-replay
//    section.

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "collectives/resilient.hpp"
#include "core/planner.hpp"
#include "graph/graph.hpp"
#include "obsv/recorder.hpp"
#include "obsv/report.hpp"
#include "obsv/trace.hpp"
#include "util/contracts.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"

namespace {

using namespace pfar;

// The tree-0 uplink of the smallest non-root vertex: a link the plan is
// guaranteed to use, so downing it hurts at least one tree.
graph::Edge used_link(const core::AllreducePlan& plan) {
  const auto& parents = plan.trees()[0].parents();
  for (int v = 0; v < static_cast<int>(parents.size()); ++v) {
    if (parents[static_cast<std::size_t>(v)] >= 0) {
      return graph::Edge(v, parents[static_cast<std::size_t>(v)]);
    }
  }
  throw std::logic_error("tree has no edges");
}

workload::ReplayConfig base_config(int layers = 6, int iterations = 2) {
  workload::ReplayConfig cfg;
  workload::ModelParams params;
  params.layers = layers;
  params.iterations = iterations;
  params.layer_elements = 1500;
  params.forward_cycles = 1200;
  cfg.trace = workload::synthesize_trace(params);
  cfg.min_bucket_elements = 2048;
  return cfg;
}

void expect_identical(const workload::ReplayResult& a,
                      const workload::ReplayResult& b, const char* label) {
  EXPECT_EQ(a.time_to_epoch, b.time_to_epoch) << label;
  EXPECT_EQ(a.compute_cycles, b.compute_cycles) << label;
  EXPECT_EQ(a.comm_wall_cycles, b.comm_wall_cycles) << label;
  EXPECT_EQ(a.comm_busy_cycles, b.comm_busy_cycles) << label;
  EXPECT_EQ(a.exposed_comm_cycles, b.exposed_comm_cycles) << label;
  EXPECT_EQ(a.total_flits, b.total_flits) << label;
  EXPECT_EQ(a.slowest_node, b.slowest_node) << label;
  EXPECT_EQ(a.slow_permille, b.slow_permille) << label;
  EXPECT_DOUBLE_EQ(a.overlap_efficiency, b.overlap_efficiency) << label;
  ASSERT_EQ(a.iterations.size(), b.iterations.size()) << label;
  for (std::size_t i = 0; i < a.iterations.size(); ++i) {
    EXPECT_EQ(a.iterations[i].start, b.iterations[i].start) << label;
    EXPECT_EQ(a.iterations[i].compute_done, b.iterations[i].compute_done)
        << label;
    EXPECT_EQ(a.iterations[i].comm_done, b.iterations[i].comm_done) << label;
    EXPECT_EQ(a.iterations[i].finish, b.iterations[i].finish) << label;
  }
}

// --- Trace model ------------------------------------------------------------

TEST(WorkloadTrace, SynthesisIsSeededDeterministic) {
  workload::ModelParams params;
  const auto a = workload::synthesize_trace(params);
  const auto b = workload::synthesize_trace(params);
  ASSERT_EQ(a.layers.size(), b.layers.size());
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    EXPECT_EQ(a.layers[i].forward_cycles, b.layers[i].forward_cycles);
    EXPECT_EQ(a.layers[i].backward_cycles, b.layers[i].backward_cycles);
    EXPECT_EQ(a.layers[i].gradient_elements, b.layers[i].gradient_elements);
  }
  params.seed = 2;
  const auto c = workload::synthesize_trace(params);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.layers.size(); ++i) {
    any_diff = any_diff ||
               a.layers[i].gradient_elements != c.layers[i].gradient_elements;
  }
  EXPECT_TRUE(any_diff) << "seed must reshape the synthesized model";
}

TEST(WorkloadTrace, JsonRoundTripsExactly) {
  // Every integer of the schema comes back exactly.
  const std::string json =
      "{\n  \"iterations\": 3,\n  \"layers\": [\n"
      "    {\"forward_cycles\": 1500, \"backward_cycles\": 3000, "
      "\"gradient_elements\": 2048},\n"
      "    {\"forward_cycles\": 1, \"backward_cycles\": 0, "
      "\"gradient_elements\": 123456789}\n"
      "  ]\n}\n";
  const auto trace = workload::parse_trace_json(json);
  EXPECT_EQ(trace.iterations, 3);
  ASSERT_EQ(trace.layers.size(), 2u);
  EXPECT_EQ(trace.layers[0].forward_cycles, 1500);
  EXPECT_EQ(trace.layers[0].backward_cycles, 3000);
  EXPECT_EQ(trace.layers[0].gradient_elements, 2048);
  EXPECT_EQ(trace.layers[1].forward_cycles, 1);
  EXPECT_EQ(trace.layers[1].backward_cycles, 0);
  EXPECT_EQ(trace.layers[1].gradient_elements, 123456789);
}

// The schema's integers are read exactly or not at all: a value that is
// not a JSON integer fails with the member's name instead of being
// rounded, truncated or defaulted.
TEST(WorkloadTrace, ParseReadsIntegersExactlyOrRejects) {
  const auto layer_with = [](const std::string& forward) {
    return "{\"layers\": [{\"forward_cycles\": " + forward +
           ", \"backward_cycles\": 1, \"gradient_elements\": 1}]}";
  };
  // 2^53 + 1 has no double; it still comes back exactly.
  EXPECT_EQ(workload::parse_trace_json(layer_with("9007199254740993"))
                .layers[0]
                .forward_cycles,
            9007199254740993LL);
  const std::string with_iterations =
      "\"layers\": [{\"forward_cycles\": 1, \"backward_cycles\": 1, "
      "\"gradient_elements\": 1}]}";
  const std::pair<std::string, const char*> bad[] = {
      {layer_with("\"abc\""), "forward_cycles"},
      {layer_with("true"), "forward_cycles"},
      {layer_with("1.5"), "forward_cycles"},
      {layer_with("1e300"), "forward_cycles"},
      {"{\"iterations\": \"four\", " + with_iterations, "iterations"},
      {"{\"iterations\": 2.9, " + with_iterations, "iterations"},
  };
  for (const auto& [text, field] : bad) {
    try {
      static_cast<void>(workload::parse_trace_json(text));
      ADD_FAILURE() << "accepted: " << text;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << e.what();
    }
  }
}

TEST(WorkloadTrace, ParseRejectsSchemaViolations) {
  const char* bad[] = {
      "",                                     // not JSON
      "[1, 2]",                               // not an object
      "{\"iterations\": 2}",                  // layers missing
      "{\"iterations\": 2, \"layers\": []}",  // layers empty
      "{\"iterations\": 0, \"layers\": [{\"forward_cycles\": 1, "
      "\"backward_cycles\": 1, \"gradient_elements\": 1}]}",  // iterations<1
      "{\"layers\": [{\"forward_cycles\": 1}]}",     // fields missing
      "{\"layers\": [{\"forward_cycles\": -1, \"backward_cycles\": 1, "
      "\"gradient_elements\": 1}]}",                 // negative
      "{\"layers\": [42]}",                          // layer not an object
  };
  for (const char* text : bad) {
    EXPECT_THROW(workload::parse_trace_json(text), std::invalid_argument)
        << text;
  }
}

TEST(WorkloadTrace, BucketizePartitionsGradientsBackToFront) {
  workload::ModelParams params;
  params.layers = 10;
  const auto trace = workload::synthesize_trace(params);
  const auto buckets = workload::bucketize(trace, 4096);
  ASSERT_FALSE(buckets.empty());
  EXPECT_EQ(buckets.front().last_layer,
            static_cast<int>(trace.layers.size()) - 1);
  EXPECT_EQ(buckets.back().first_layer, 0);
  long long covered = 0;
  for (std::size_t i = 0; i < buckets.size(); ++i) {
    covered += buckets[i].elements;
    EXPECT_LE(buckets[i].first_layer, buckets[i].last_layer);
    if (i + 1 < buckets.size()) {
      // Back-to-front and at least the requested granularity (only the
      // last bucket of the epoch may come up short).
      EXPECT_GE(buckets[i].elements, 4096);
      EXPECT_EQ(buckets[i].first_layer, buckets[i + 1].last_layer + 1);
      EXPECT_LE(buckets[i].ready_offset, buckets[i + 1].ready_offset);
    }
  }
  EXPECT_EQ(covered, trace.total_gradient_elements());
  EXPECT_EQ(buckets.back().ready_offset, trace.total_compute_cycles());
  // min <= 0: one bucket per gradient-bearing layer.
  const auto fine = workload::bucketize(trace, 0);
  EXPECT_EQ(fine.size(), trace.layers.size());
}

// --- Skew model -------------------------------------------------------------

TEST(WorkloadSkew, MultipliersAreSeededBoundedAndStragglerAware) {
  workload::SkewSpec skew;
  skew.skew_permille = 300;
  skew.straggler_nodes = 2;
  skew.straggler_permille = 2500;
  const auto a = workload::node_multipliers(skew, 57);
  const auto b = workload::node_multipliers(skew, 57);
  EXPECT_EQ(a, b);
  int stragglers = 0;
  for (int m : a) {
    EXPECT_GE(m, 1000);
    if (m >= 2500) {
      ++stragglers;
    } else {
      EXPECT_LE(m, 1300);
    }
  }
  EXPECT_EQ(stragglers, 2);
  // Toggling the jitter must not reshuffle WHICH nodes straggle.
  workload::SkewSpec no_jitter = skew;
  no_jitter.skew_permille = 0;
  const auto c = workload::node_multipliers(no_jitter, 57);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i] >= 2500, c[i] >= 2500) << i;
  }
  // No skew at all: every node at par.
  const auto flat = workload::node_multipliers(workload::SkewSpec{}, 8);
  for (int m : flat) EXPECT_EQ(m, 1000);
}

// --- Replay engine ----------------------------------------------------------

TEST(WorkloadDeterminism, ReplayBitIdenticalAcrossRuns) {
  const auto plan = core::AllreducePlanner(7).build();
  for (const workload::CommMode mode :
       {workload::CommMode::kService, workload::CommMode::kSingle}) {
    workload::ReplayConfig cfg = base_config();
    cfg.mode = mode;
    cfg.skew.skew_permille = 200;
    const auto a = workload::replay_training(plan, cfg);
    const auto b = workload::replay_training(plan, cfg);
    expect_identical(a, b, "same config, second run");
  }
}

TEST(WorkloadReplay, OverlapStrictlyBeatsSerializedBaseline) {
  const auto plan = core::AllreducePlanner(7).build();
  for (const workload::CommMode mode :
       {workload::CommMode::kService, workload::CommMode::kSingle}) {
    workload::ReplayConfig cfg = base_config();
    cfg.mode = mode;
    const auto on = workload::replay_training(plan, cfg);
    cfg.overlap = false;
    const auto off = workload::replay_training(plan, cfg);
    EXPECT_LT(on.time_to_epoch, off.time_to_epoch);
    EXPECT_LT(on.exposed_comm_cycles, off.exposed_comm_cycles);
    EXPECT_GT(on.overlap_efficiency, off.overlap_efficiency);
    // Serialized: nothing hides, every comm wall cycle is exposed.
    EXPECT_EQ(off.exposed_comm_cycles, off.comm_wall_cycles);
    EXPECT_DOUBLE_EQ(off.overlap_efficiency, 0.0);
    EXPECT_TRUE(on.values_correct);
    EXPECT_TRUE(off.values_correct);
  }
}

TEST(WorkloadReplay, StragglerStretchesEpochNotFabric) {
  const auto plan = core::AllreducePlanner(7).build();
  workload::ReplayConfig cfg = base_config();
  const auto healthy = workload::replay_training(plan, cfg);
  cfg.skew.straggler_nodes = 1;
  cfg.skew.straggler_permille = 4000;
  const auto straggling = workload::replay_training(plan, cfg);
  EXPECT_GT(straggling.time_to_epoch, healthy.time_to_epoch);
  EXPECT_EQ(straggling.slow_permille, 4000);
  // The fabric does the same work; only the compute timeline moved.
  EXPECT_EQ(straggling.total_flits, healthy.total_flits);
  EXPECT_EQ(straggling.comm_wall_cycles, healthy.comm_wall_cycles);
  // 4x compute on the critical path: epoch scales by ~4 (comm adds slack).
  EXPECT_GE(straggling.time_to_epoch, healthy.time_to_epoch * 3);
}

TEST(WorkloadReplay, IterationTimelineIsCoherent) {
  const auto plan = core::AllreducePlanner(7).build();
  workload::ReplayConfig cfg = base_config(/*layers=*/6, /*iterations=*/3);
  const auto res = workload::replay_training(plan, cfg);
  ASSERT_EQ(res.iterations.size(), 3u);
  long long prev_finish = 0;
  for (const auto& iter : res.iterations) {
    EXPECT_EQ(iter.start, prev_finish);
    EXPECT_GT(iter.compute_done, iter.start);
    EXPECT_EQ(iter.finish, std::max(iter.compute_done, iter.comm_done));
    EXPECT_LE(iter.exposed_comm_cycles, iter.comm_wall_cycles);
    EXPECT_LE(iter.comm_wall_cycles, iter.comm_busy_cycles);
    prev_finish = iter.finish;
  }
  EXPECT_EQ(res.time_to_epoch, prev_finish);
  EXPECT_EQ(res.buckets.size(),
            workload::bucketize(cfg.trace, cfg.min_bucket_elements).size());
}

// --- Composition with the fault and background layers -----------------------

TEST(WorkloadReplay, FaultScriptComposesThroughResilientDriver) {
  const auto plan = core::AllreducePlanner(7).build();
  const graph::Edge link = used_link(plan);
  workload::ReplayConfig cfg = base_config();
  cfg.mode = workload::CommMode::kSingle;
  const auto healthy = workload::replay_training(plan, cfg);
  cfg.sim.progress_timeout = 1500;
  cfg.sim.faults.events.push_back(
      {200, link.u, link.v, simnet::FaultType::kLinkDown});
  const auto faulted = workload::replay_training(plan, cfg);
  EXPECT_TRUE(faulted.values_correct)
      << "resilient driver must recover the downed link";
  EXPECT_GT(faulted.time_to_epoch, healthy.time_to_epoch);
  EXPECT_GT(faulted.replayed_elements, 0);
}

TEST(WorkloadReplay, BackgroundTrafficComposesInServiceMode) {
  const auto plan = core::AllreducePlanner(7).build();
  workload::ReplayConfig cfg = base_config();
  const auto quiet = workload::replay_training(plan, cfg);
  cfg.sim.background.pattern = simnet::TrafficPattern::kPermutation;
  cfg.sim.background.load = 0.5;
  cfg.sim.background.seed = 7;
  const auto loaded = workload::replay_training(plan, cfg);
  EXPECT_TRUE(loaded.values_correct);
  EXPECT_GE(loaded.time_to_epoch, quiet.time_to_epoch);
  EXPECT_GT(loaded.comm_wall_cycles, quiet.comm_wall_cycles);
  const auto replayed = workload::replay_training(plan, cfg);
  expect_identical(loaded, replayed, "background replay determinism");
}

TEST(WorkloadReplay, ServiceModeRejectsFaultScriptsByContract) {
  // Partitioned lanes cannot recover (the service rejects the script).
  const auto plan = core::AllreducePlanner(7).build();
  const graph::Edge link = used_link(plan);
  workload::ReplayConfig cfg = base_config();
  cfg.mode = workload::CommMode::kService;
  cfg.sim.faults.events.push_back(
      {200, link.u, link.v, simnet::FaultType::kLinkDown});
  util::contracts::ScopedThrowHandler guard;
  EXPECT_THROW(workload::replay_training(plan, cfg),
               util::contracts::ContractViolation);
}

// The kSingle backend as it was before it became the service's serial
// lane: one FIFO over a resilient TreeSetCost of every tree, each bucket
// starting at max(release, lane free).
workload::ReplayResult fifo_lane_oracle(const core::AllreducePlan& plan,
                                        const workload::ReplayConfig& cfg) {
  workload::ReplayResult out;
  out.buckets = workload::bucketize(cfg.trace, cfg.min_bucket_elements);
  const std::vector<int> mult =
      workload::node_multipliers(cfg.skew, plan.num_nodes());
  const auto slow = std::max_element(mult.begin(), mult.end());
  out.slow_permille = *slow;
  out.slowest_node = static_cast<int>(slow - mult.begin());
  const auto scale = [&](long long cycles) {
    return cycles * out.slow_permille / 1000;
  };
  collectives::TreeSetCost lane(plan.topology(), plan.trees(), cfg.sim,
                                collectives::ResilienceConfig{});
  long long clock = 0, lane_free = 0;
  for (int k = 0; k < cfg.trace.iterations; ++k) {
    workload::IterationRecord it;
    it.start = clock;
    it.compute_done = clock + scale(cfg.trace.total_compute_cycles());
    it.comm_done = it.start;
    for (const workload::Bucket& bucket : out.buckets) {
      const long long release = cfg.overlap
                                    ? it.start + scale(bucket.ready_offset)
                                    : it.compute_done;
      const collectives::RunCost cost = lane.cost(bucket.elements);
      if (cost.cycles == 0) continue;
      lane_free = std::max(release, lane_free) + cost.cycles;
      it.comm_busy_cycles += cost.cycles;
      it.comm_done = lane_free;
      out.total_flits += cost.flits;
      out.replayed_elements += cost.replayed;
      out.values_correct = out.values_correct && cost.correct;
    }
    // One lane: its runs never overlap, so wall time is busy time.
    it.comm_wall_cycles = it.comm_busy_cycles;
    it.finish = std::max(it.compute_done, it.comm_done);
    it.exposed_comm_cycles = std::max(0LL, it.comm_done - it.compute_done);
    out.compute_cycles += it.compute_done - it.start;
    out.comm_wall_cycles += it.comm_wall_cycles;
    out.comm_busy_cycles += it.comm_busy_cycles;
    out.exposed_comm_cycles += it.exposed_comm_cycles;
    out.iterations.push_back(it);
    clock = it.finish;
  }
  out.time_to_epoch = clock;
  out.overlap_efficiency =
      out.comm_wall_cycles > 0
          ? 1.0 - static_cast<double>(out.exposed_comm_cycles) /
                      static_cast<double>(out.comm_wall_cycles)
          : 1.0;
  return out;
}

TEST(WorkloadReplay, SingleModeIsOneFifoLane) {
  for (const int q : {5, 7}) {
    const auto plan = core::AllreducePlanner(q).build();
    const graph::Edge link = used_link(plan);
    for (int cell = 0; cell < 16; ++cell) {
      workload::ReplayConfig cfg = base_config();
      cfg.mode = workload::CommMode::kSingle;
      cfg.skew.skew_permille = 200;
      cfg.overlap = (cell & 1) != 0;
      if ((cell & 2) != 0) {
        cfg.sim.background.pattern = simnet::TrafficPattern::kUniform;
        cfg.sim.background.load = 0.25;
        cfg.sim.background.seed = 11;
      }
      const bool fault = (cell & 4) != 0;
      if (fault) {
        cfg.sim.progress_timeout = 800;
        cfg.sim.faults.events.push_back(
            {60, link.u, link.v, simnet::FaultType::kLinkDown});
      }
      cfg.min_bucket_elements = (cell & 8) != 0 ? 2048 : 0;
      const std::string where =
          "q " + std::to_string(q) + " cell " + std::to_string(cell);

      const workload::ReplayResult want = fifo_lane_oracle(plan, cfg);
      const workload::ReplayResult got = workload::replay_training(plan, cfg);
      EXPECT_EQ(got.time_to_epoch, want.time_to_epoch) << where;
      EXPECT_EQ(got.compute_cycles, want.compute_cycles) << where;
      EXPECT_EQ(got.comm_wall_cycles, want.comm_wall_cycles) << where;
      EXPECT_EQ(got.comm_busy_cycles, want.comm_busy_cycles) << where;
      EXPECT_EQ(got.exposed_comm_cycles, want.exposed_comm_cycles) << where;
      EXPECT_EQ(got.overlap_efficiency, want.overlap_efficiency) << where;
      EXPECT_EQ(got.total_flits, want.total_flits) << where;
      EXPECT_EQ(got.replayed_elements, want.replayed_elements) << where;
      EXPECT_EQ(got.slowest_node, want.slowest_node) << where;
      EXPECT_EQ(got.slow_permille, want.slow_permille) << where;
      EXPECT_EQ(got.values_correct, want.values_correct) << where;
      EXPECT_TRUE(got.values_correct) << where;
      EXPECT_EQ(got.replayed_elements > 0, fault) << where;
      ASSERT_EQ(got.buckets.size(), want.buckets.size()) << where;
      for (std::size_t b = 0; b < got.buckets.size(); ++b) {
        EXPECT_EQ(got.buckets[b].first_layer, want.buckets[b].first_layer)
            << where;
        EXPECT_EQ(got.buckets[b].last_layer, want.buckets[b].last_layer)
            << where;
        EXPECT_EQ(got.buckets[b].elements, want.buckets[b].elements) << where;
        EXPECT_EQ(got.buckets[b].ready_offset, want.buckets[b].ready_offset)
            << where;
      }
      ASSERT_EQ(got.iterations.size(), want.iterations.size()) << where;
      for (std::size_t i = 0; i < got.iterations.size(); ++i) {
        const workload::IterationRecord& g = got.iterations[i];
        const workload::IterationRecord& w = want.iterations[i];
        EXPECT_EQ(g.start, w.start) << where << " iter " << i;
        EXPECT_EQ(g.compute_done, w.compute_done) << where << " iter " << i;
        EXPECT_EQ(g.comm_done, w.comm_done) << where << " iter " << i;
        EXPECT_EQ(g.finish, w.finish) << where << " iter " << i;
        EXPECT_EQ(g.comm_wall_cycles, w.comm_wall_cycles)
            << where << " iter " << i;
        EXPECT_EQ(g.comm_busy_cycles, w.comm_busy_cycles)
            << where << " iter " << i;
        EXPECT_EQ(g.exposed_comm_cycles, w.exposed_comm_cycles)
            << where << " iter " << i;
      }
    }
  }
}

// --- Observability ----------------------------------------------------------

TEST(WorkloadObsv, EmitsTimelineAndCountersRenderedByReport) {
  const auto plan = core::AllreducePlanner(7).build();
  obsv::Recorder recorder(1u << 18);
  workload::ReplayConfig cfg = base_config();
  cfg.sim.recorder = &recorder;
  const auto res = workload::replay_training(plan, cfg);
  EXPECT_EQ(recorder.metrics.counter("workload.iterations"),
            cfg.trace.iterations);
  EXPECT_EQ(recorder.metrics.counter("workload.compute_cycles"),
            res.compute_cycles);
  EXPECT_EQ(recorder.metrics.counter("workload.comm_wall_cycles"),
            res.comm_wall_cycles);
  EXPECT_EQ(recorder.metrics.counter("workload.exposed_comm_cycles"),
            res.exposed_comm_cycles);
  EXPECT_GT(recorder.trace.size(), 0u);

  std::ostringstream trace_json, metrics_jsonl;
  recorder.trace.write_chrome_json(trace_json);
  recorder.metrics.write_jsonl(metrics_jsonl);
  const auto report =
      obsv::build_report(trace_json.str(), metrics_jsonl.str());
  // Per iteration: compute span + comm span + barrier instant.
  ASSERT_GE(report.workload.size(),
            static_cast<std::size_t>(cfg.trace.iterations) * 2);
  std::ostringstream rendered;
  obsv::render_report(report, rendered);
  EXPECT_NE(rendered.str().find("training replay timeline"),
            std::string::npos);
  EXPECT_NE(rendered.str().find("workload.compute_cycles"),
            std::string::npos);
}

}  // namespace
