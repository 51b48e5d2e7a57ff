// Trace-driven training replay over the multi-tree Allreduce fabric
// (docs/training_replay.md): each design point replays a bulk-synchronous
// SGD epoch of the built-in parameterized model — per-iteration compute
// phases with seeded node skew, gradient buckets released back-to-front as
// backprop finishes layers, bucket allreduces scheduled through the
// service layer's link-disjoint lanes — and reports time-to-epoch plus
// collective-overlap efficiency (1 - exposed comm / comm wall cycles).
//
// Grid: q in {7, 11} x overlap {on, off} x straggler severity {none, mild
// ~2x, severe ~4x}. The headline shape: at every (q, straggler) pair the
// overlapped replay finishes the epoch STRICTLY earlier than the
// serialized one (the bench exits 1 otherwise), and a straggler stretches
// time-to-epoch without touching the fabric-side fields. All point fields
// are integer virtual-cycle arithmetic over deterministic simulator runs —
// bit-identical across machines and thread counts — so the CI gate
// compares them exactly against bench/baselines/.
//
// --trace-file PATH replays a recorded JSON trace (schema in
// docs/training_replay.md) instead of the synthesized model for the
// human-readable table; the JSON artifact always covers the synthesized
// grid so the baseline stays comparable.
//
// Observability: --trace/--metrics/--report PATH
// re-run the headline point with a Recorder attached; the rendered report
// includes the training-replay timeline section (per-iteration compute and
// comm spans, barrier instants, workload.* counters).

#include <chrono>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/planner.hpp"
#include "core/sweep_runner.hpp"
#include "obsv/recorder.hpp"
#include "util/args.hpp"
#include "util/table.hpp"
#include "workload/replay.hpp"

namespace {

struct Severity {
  const char* name;
  int straggler_nodes;
  int straggler_permille;
};

struct Point {
  int q;
  bool overlap;
  Severity severity;
};

struct PointResult {
  long long time_to_epoch = 0;
  double overlap_eff = 0.0;
  long long exposed = 0;
  long long wall = 0;
  long long busy = 0;
  long long buckets = 0;
  long long flits = 0;
  long long slow_permille = 0;
  bool correct = false;
  double wall_ms = 0.0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

pfar::workload::ReplayConfig make_config(const Point& p,
                                         const pfar::workload::TrainingTrace&
                                             trace,
                                         pfar::simnet::SimEngine engine) {
  pfar::workload::ReplayConfig cfg;
  cfg.trace = trace;
  cfg.overlap = p.overlap;
  cfg.mode = pfar::workload::CommMode::kService;
  cfg.sim.engine = engine;
  cfg.skew.skew_permille = 200;  // +/- mild seeded heterogeneity
  cfg.skew.straggler_nodes = p.severity.straggler_nodes;
  cfg.skew.straggler_permille = p.severity.straggler_permille;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv,
      {"max-q", "layers", "layer-elements", "forward-cycles", "iterations",
       "trace-file", "json", "threads", "engine", "trace", "metrics",
       "report"});
  const int threads = args.threads();
  const simnet::SimEngine engine = bench::engine_arg(args);

  // The replayed model: either the built-in parameterized one (seeded
  // layer jitter; see ModelParams) or a recorded trace file.
  workload::ModelParams params;
  params.layers = static_cast<int>(args.get_int("layers", 12));
  params.iterations = static_cast<int>(args.get_int("iterations", 3));
  params.layer_elements = args.get_int("layer-elements", 3000);
  params.forward_cycles = args.get_int("forward-cycles", 2500);
  workload::TrainingTrace trace;
  const std::string trace_file = args.get_string("trace-file", "");
  if (!trace_file.empty()) {
    std::ifstream in(trace_file);
    if (!in) {
      std::fprintf(stderr, "error: cannot open trace file %s\n",
                   trace_file.c_str());
      return 2;
    }
    std::ostringstream text;
    text << in.rdbuf();
    try {
      trace = workload::parse_trace_json(text.str());
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: %s\n", e.what());
      return 2;
    }
  } else {
    trace = workload::synthesize_trace(params);
  }

  std::printf(
      "Trace-driven training replay: time-to-epoch and overlap efficiency\n"
      "(%zu layers, %d iterations, %lld gradient elements/iter, engine = "
      "%s%s)\n\n",
      trace.layers.size(), trace.iterations, trace.total_gradient_elements(),
      simnet::to_string(engine),
      trace_file.empty() ? "" : (", trace " + trace_file).c_str());

  const Severity severities[] = {
      {"none", 0, 1000},
      {"mild", 1, 2000},
      {"severe", 1, 4000},
  };
  const int max_q = static_cast<int>(args.get_int("max-q", 11));
  std::vector<Point> grid;
  for (int q : {7, 11}) {
    if (q > max_q) continue;
    for (const Severity& severity : severities) {
      for (bool overlap : {true, false}) {
        grid.push_back({q, overlap, severity});
      }
    }
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  core::SweepRunner runner(threads);
  const auto results = runner.map<PointResult>(
      static_cast<int>(grid.size()), [&](const core::SweepTask& task) {
        const Point& p = grid[static_cast<std::size_t>(task.index)];
        const auto point_start = std::chrono::steady_clock::now();
        const auto plan = core::AllreducePlanner(p.q)
                              .solution(core::Solution::kLowDepth)
                              .build();
        const auto res = workload::replay_training(
            plan, make_config(p, trace, engine));
        PointResult out;
        out.time_to_epoch = res.time_to_epoch;
        out.overlap_eff = res.overlap_efficiency;
        out.exposed = res.exposed_comm_cycles;
        out.wall = res.comm_wall_cycles;
        out.busy = res.comm_busy_cycles;
        out.buckets = static_cast<long long>(res.buckets.size());
        out.flits = res.total_flits;
        out.slow_permille = res.slow_permille;
        out.correct = res.values_correct;
        out.wall_ms = ms_since(point_start);
        return out;
      });
  const double total_ms = ms_since(sweep_start);

  util::Table table({"q", "straggler", "overlap", "epoch cycles",
                     "overlap eff", "exposed", "comm wall", "buckets",
                     "correct"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add(grid[i].q, grid[i].severity.name,
              grid[i].overlap ? "on" : "off", results[i].time_to_epoch,
              results[i].overlap_eff, results[i].exposed, results[i].wall,
              results[i].buckets, results[i].correct);
  }
  table.print(std::cout);

  // Headline shape check: overlapping communication with backprop must
  // strictly shorten the epoch at every (q, straggler) pair, and every
  // replay must deliver correct values. A violation is a bench failure.
  bool shape_ok = true;
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!results[i].correct) {
      std::fprintf(stderr, "shape FAIL: q=%d straggler=%s overlap=%s "
                           "delivered wrong values\n",
                   grid[i].q, grid[i].severity.name,
                   grid[i].overlap ? "on" : "off");
      shape_ok = false;
    }
    if (!grid[i].overlap) continue;
    for (std::size_t j = 0; j < grid.size(); ++j) {
      if (grid[j].overlap || grid[j].q != grid[i].q ||
          std::string(grid[j].severity.name) != grid[i].severity.name) {
        continue;
      }
      if (results[i].time_to_epoch >= results[j].time_to_epoch) {
        std::fprintf(stderr,
                     "shape FAIL: q=%d straggler=%s overlap-on epoch %lld "
                     ">= overlap-off %lld\n",
                     grid[i].q, grid[i].severity.name,
                     results[i].time_to_epoch, results[j].time_to_epoch);
        shape_ok = false;
      }
    }
  }
  std::printf(
      "\nShape check: %s — overlap-on strictly beats overlap-off at every\n"
      "(q, straggler) pair; stragglers stretch the epoch, not the fabric.\n",
      shape_ok ? "OK" : "FAIL");

  const std::string json_path =
      args.get_string("json", "BENCH_training_replay.json");
  if (FILE* json = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(json, "{\n");
    bench::write_meta(json, 1);
    std::fprintf(json,
                 "  \"threads\": %d,\n  \"total_wall_ms\": %.1f,\n"
                 "  \"layers\": %zu,\n  \"iterations\": %d,\n",
                 threads, total_ms, trace.layers.size(), trace.iterations);
    std::fprintf(json, "  \"points\": [\n");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      std::fprintf(
          json,
          "    {\"engine\": \"%s\", \"q\": %d, \"solution\": \"low-depth\", "
          "\"overlap\": \"%s\", \"straggler\": \"%s\", "
          "\"time_to_epoch\": %lld, \"overlap_eff\": %.4f, "
          "\"exposed_comm_cycles\": %lld, \"comm_wall_cycles\": %lld, "
          "\"comm_busy_cycles\": %lld, \"buckets\": %lld, "
          "\"total_flits\": %lld, \"slow_permille\": %lld, "
          "\"correct\": %s, \"wall_ms\": %.1f}%s\n",
          simnet::to_string(engine), grid[i].q,
          grid[i].overlap ? "on" : "off", grid[i].severity.name,
          results[i].time_to_epoch, results[i].overlap_eff,
          results[i].exposed, results[i].wall, results[i].busy,
          results[i].buckets, results[i].flits, results[i].slow_permille,
          results[i].correct ? "true" : "false", results[i].wall_ms,
          i + 1 < grid.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::fprintf(stderr, "wrote %s (%zu points, %d threads, %.1f ms)\n",
                 json_path.c_str(), grid.size(), threads, total_ms);
  } else {
    std::fprintf(stderr, "warning: could not open %s for writing\n",
                 json_path.c_str());
  }

  // Observability artifacts: re-run the headline point (largest q, severe
  // straggler, overlap on) with a Recorder attached so the rendered report
  // exercises the training-replay timeline (compute/comm spans, barrier
  // instants, workload.* counters + service lane spans). No-op unless a
  // flag is given.
  if (bench::wants_artifacts(args)) {
    Point p{max_q >= 11 ? 11 : 7, true, severities[2]};
    obsv::Recorder recorder(1u << 20);
    const auto plan = core::AllreducePlanner(p.q)
                          .solution(core::Solution::kLowDepth)
                          .build();
    workload::ReplayConfig config =
        make_config(p, trace, engine);
    config.sim.recorder = &recorder;
    workload::replay_training(plan, config);
    bench::write_artifacts(args, recorder,
                           "q=" + std::to_string(p.q) + " straggler=" +
                               p.severity.name + " overlap=on");
  }
  return shape_ok ? 0 : 1;
}
