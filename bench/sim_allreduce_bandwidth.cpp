// Validates Theorem 5.1 / Corollaries 7.1 and 7.7 end-to-end on the
// cycle-level simulator: for each design point, the measured aggregate
// Allreduce bandwidth of both solutions must converge to the Algorithm 1
// prediction (q/2 for low-depth, floor((q+1)/2) for edge-disjoint) as the
// vector grows.
//
// The grid fans out across a core::SweepRunner (--threads N /
// PFAR_THREADS), and per-point results land in BENCH_sim_allreduce.json so
// the perf trajectory of the simulator is tracked release over release.
//
// Observability: --trace/--metrics/--report PATH
// re-run the largest design point with a Recorder attached and write the
// trace JSON, metrics JSONL and rendered run report (docs/observability.md).

#include <chrono>
#include <cstdio>
#include <initializer_list>
#include <iostream>
#include <utility>
#include <vector>

#include "bench_json.hpp"
#include "core/planner.hpp"
#include "core/sweep_runner.hpp"
#include "obsv/recorder.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

struct Point {
  int q;
  pfar::core::Solution solution;
  long long m;
};

struct PointResult {
  double alg1_bw = 0.0;
  double sim_bw = 0.0;
  double efficiency = 0.0;
  bool correct = false;
  double wall_ms = 0.0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv,
      {"max-q", "json", "threads", "engine", "trace", "metrics", "report"});
  const int threads = args.threads();
  const simnet::SimEngine engine = bench::engine_arg(args);
  simnet::SimConfig sim_config;
  sim_config.engine = engine;

  std::printf("Simulated vs analytic Allreduce bandwidth (elements/cycle, "
              "link B = 1, engine = %s)\n\n",
              simnet::to_string(engine));

  const int max_q = static_cast<int>(args.get_int("max-q", 11));
  std::vector<Point> grid;
  for (int q : {3, 5, 7, 9, 11}) {
    if (q > max_q) continue;
    for (const auto solution :
         {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
      for (long long m : {2000LL, 20000LL}) {
        grid.push_back({q, solution, m});
      }
    }
  }
  // The flow tier never builds the per-VC fabric, so it scales to radices
  // the cycle engines cannot reach. Extend the grid past the cycle-feasible
  // range only on that tier; m grows with q so the fluid measure phase
  // dominates warmup/drain (docs/simulation_engine.md).
  if (engine == simnet::SimEngine::kFlow) {
    for (const auto& [q, m] : std::initializer_list<std::pair<int, long long>>{
             {27, 100'000'000LL},
             {81, 300'000'000LL},
             {243, 2'000'000'000LL}}) {
      if (q > max_q) continue;
      grid.push_back({q, core::Solution::kEdgeDisjoint, m});
    }
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  core::SweepRunner runner(threads);
  const auto results = runner.map<PointResult>(
      static_cast<int>(grid.size()), [&](const core::SweepTask& task) {
        const Point& p = grid[static_cast<std::size_t>(task.index)];
        const auto point_start = std::chrono::steady_clock::now();
        const auto plan =
            core::AllreducePlanner(p.q).solution(p.solution).build();
        const auto res = plan.simulate(p.m, sim_config);
        PointResult out;
        out.alg1_bw = plan.aggregate_bandwidth();
        out.sim_bw = res.sim.aggregate_bandwidth;
        out.efficiency = res.efficiency_vs_model;
        out.correct = res.sim.values_correct;
        out.wall_ms = ms_since(point_start);
        return out;
      });
  const double total_ms = ms_since(sweep_start);

  util::Table table({"q", "solution", "m", "Alg.1 BW", "sim BW",
                     "efficiency", "correct"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add(grid[i].q, core::to_string(grid[i].solution), grid[i].m,
              results[i].alg1_bw, results[i].sim_bw, results[i].efficiency,
              results[i].correct);
  }
  table.print(std::cout);
  std::printf(
      "\nShape check: efficiency -> 1.0 as m grows; every run reduces\n"
      "exactly (integer-checked at all N nodes).\n");

  const std::string json_path =
      args.get_string("json", "BENCH_sim_allreduce.json");
  if (FILE* json = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(json, "{\n");
    bench::write_meta(json, 1);
    std::fprintf(json, "  \"threads\": %d,\n  \"total_wall_ms\": %.1f,\n",
                 threads, total_ms);
    std::fprintf(json, "  \"points\": [\n");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      std::fprintf(
          json,
          "    {\"engine\": \"%s\", \"q\": %d, \"solution\": \"%s\", "
          "\"m\": %lld, "
          "\"alg1_bw\": %.4f, \"sim_bw\": %.4f, \"efficiency\": %.4f, "
          "\"correct\": %s, \"wall_ms\": %.1f}%s\n",
          simnet::to_string(engine), grid[i].q,
          core::to_string(grid[i].solution).c_str(), grid[i].m,
          results[i].alg1_bw, results[i].sim_bw, results[i].efficiency,
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

  // Observability artifacts: re-run the largest design point of the grid
  // with a Recorder attached (planner phase timers + full simulation
  // trace/metrics). No-op unless one of the flags is given.
  if (bench::wants_artifacts(args)) {
    const Point& p = grid.back();
    obsv::Recorder recorder(1u << 20);
    const auto plan = core::AllreducePlanner(p.q)
                          .solution(p.solution)
                          .observer(&recorder)
                          .build();
    simnet::SimConfig config = sim_config;
    config.recorder = &recorder;
    plan.simulate(p.m, config);
    bench::write_artifacts(args, recorder,
                           "q=" + std::to_string(p.q) + " " +
                               core::to_string(p.solution) +
                               " m=" + std::to_string(p.m));
  }
  return 0;
}
