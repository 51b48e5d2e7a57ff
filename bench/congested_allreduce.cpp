// Congestion-aware adaptive Allreduce under live background traffic
// (docs/congestion_adaptation.md): for each design point the static plan
// (Theorem 5.1 split over the paper's trees, oblivious to traffic) and the
// adaptive plan (probe window -> congestion map -> capacitated Algorithm 1
// re-weighting + hot-link re-planning) execute the same m-element
// collective through the same deterministic background load, and the
// bandwidth ratio is reported.
//
// The headline rows are the permutation patterns at >= 25% load: background
// flows concentrate on a few links there, the static split keeps feeding
// the strangled trees, and the controller's re-weighting recovers most of
// the gap. Uniform background degrades every link alike, so adaptation is
// correctly (and verifiably) a no-op. All fields are deterministic — the
// cycle engines replay background drains bit-identically — so the CI gate
// compares them exactly against bench/baselines/.
//
// Observability: --trace/--metrics/--report PATH
// re-run the largest design point with a Recorder attached; the rendered
// report includes the congestion-adaptation timeline section.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "adapt/controller.hpp"
#include "bench_json.hpp"
#include "core/planner.hpp"
#include "core/sweep_runner.hpp"
#include "obsv/recorder.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

struct Pattern {
  const char* name;
  pfar::simnet::TrafficPattern pattern;
};

struct Point {
  int q;
  double load;
  Pattern pattern;
  long long m;
};

struct PointResult {
  double static_bw = 0.0;
  double adaptive_bw = 0.0;
  double win = 0.0;  // adaptive_bw / static_bw
  long long hot_links = 0;
  long long replanned_trees = 0;
  long long probe_cycles = 0;
  bool correct = false;
  double wall_ms = 0.0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

pfar::simnet::SimConfig make_config(const Point& p,
                                    pfar::simnet::SimEngine engine) {
  pfar::simnet::SimConfig cfg;
  cfg.engine = engine;
  cfg.background.pattern = p.pattern.pattern;
  cfg.background.load = p.load;
  // A fixed permutation with structure: seed 7 concentrates several flows
  // through shared links on both benched radices, which keeps the headline
  // rows interesting.
  cfg.background.seed = 7;
  return cfg;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv,
      {"max-q", "json", "threads", "engine", "trace", "metrics", "report"});
  const int threads = args.threads();
  const simnet::SimEngine engine = bench::engine_arg(args);

  std::printf(
      "Static vs congestion-adaptive Allreduce under background traffic\n"
      "(elements/cycle, link B = 1, low-depth trees, engine = %s)\n\n",
      simnet::to_string(engine));

  const Pattern patterns[] = {
      {"uniform", simnet::TrafficPattern::kUniform},
      {"permutation", simnet::TrafficPattern::kPermutation},
      {"hotspot", simnet::TrafficPattern::kHotspot},
  };
  const int max_q = static_cast<int>(args.get_int("max-q", 11));
  std::vector<Point> grid;
  for (int q : {7, 11}) {
    if (q > max_q) continue;
    for (double load : {0.10, 0.25, 0.50}) {
      for (const Pattern& pattern : patterns) {
        grid.push_back({q, load, pattern, 20000});
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
        const auto res = adapt::run_adaptive_allreduce(
            plan.topology(), plan.trees(), p.m,
            make_config(p, engine), /*compare_static=*/true);
        PointResult out;
        out.static_bw = res.static_run.sim.aggregate_bandwidth;
        out.adaptive_bw = res.adaptive.sim.aggregate_bandwidth;
        out.win = out.static_bw > 0.0 ? out.adaptive_bw / out.static_bw : 0.0;
        out.hot_links = static_cast<long long>(res.plan.hot_links.size());
        out.replanned_trees =
            static_cast<long long>(res.plan.replanned.size());
        out.probe_cycles = res.probe.cycles;
        out.correct = res.adaptive.sim.values_correct &&
                      res.static_run.sim.values_correct;
        out.wall_ms = ms_since(point_start);
        return out;
      });
  const double total_ms = ms_since(sweep_start);

  util::Table table({"q", "load", "pattern", "static BW", "adaptive BW",
                     "win", "hot", "replanned", "correct"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add(grid[i].q, grid[i].load, grid[i].pattern.name,
              results[i].static_bw, results[i].adaptive_bw, results[i].win,
              results[i].hot_links, results[i].replanned_trees,
              results[i].correct);
  }
  table.print(std::cout);
  std::printf(
      "\nShape check: win >= 1.0 everywhere (the controller never commits a\n"
      "predictably worse plan); permutation rows at >= 25%% load show the\n"
      "re-weighting recovering bandwidth the static split leaves behind.\n");

  const std::string json_path =
      args.get_string("json", "BENCH_congested_allreduce.json");
  if (FILE* json = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(json, "{\n");
    bench::write_meta(json, 1);
    std::fprintf(json, "  \"threads\": %d,\n  \"total_wall_ms\": %.1f,\n",
                 threads, total_ms);
    std::fprintf(json, "  \"points\": [\n");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      std::fprintf(
          json,
          "    {\"engine\": \"%s\", \"q\": %d, \"solution\": \"low-depth\", "
          "\"m\": %lld, \"load\": %.2f, \"pattern\": \"%s\", "
          "\"static_bw\": %.4f, \"adaptive_bw\": %.4f, \"win\": %.4f, "
          "\"hot_links\": %lld, \"replanned_trees\": %lld, "
          "\"probe_cycles\": %lld, \"correct\": %s, \"wall_ms\": %.1f}%s\n",
          simnet::to_string(engine), grid[i].q, grid[i].m, grid[i].load,
          grid[i].pattern.name, results[i].static_bw, results[i].adaptive_bw,
          results[i].win, results[i].hot_links, results[i].replanned_trees,
          results[i].probe_cycles, results[i].correct ? "true" : "false",
          results[i].wall_ms, i + 1 < grid.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::fprintf(stderr, "wrote %s (%zu points, %d threads, %.1f ms)\n",
                 json_path.c_str(), grid.size(), threads, total_ms);
  } else {
    std::fprintf(stderr, "warning: could not open %s for writing\n",
                 json_path.c_str());
  }

  // Observability artifacts: re-run the highest-contrast design point with
  // a Recorder attached so the rendered report exercises the congestion-
  // adaptation timeline (probe window span + replan instant + adapt.*
  // counters). No-op unless a flag is given.
  if (bench::wants_artifacts(args)) {
    Point p = grid.back();
    p.pattern = patterns[1];  // permutation: hot links + replans
    p.load = 0.50;
    obsv::Recorder recorder(1u << 20);
    const auto plan = core::AllreducePlanner(p.q)
                          .solution(core::Solution::kLowDepth)
                          .build();
    simnet::SimConfig config = make_config(p, engine);
    config.recorder = &recorder;
    adapt::run_adaptive_allreduce(plan.topology(), plan.trees(), p.m, config,
                                  /*compare_static=*/false);
    char what[64];
    std::snprintf(what, sizeof what, "q=%d load=%.2f %s", p.q, p.load,
                  p.pattern.name);
    bench::write_artifacts(args, recorder, what);
  }
  return 0;
}
