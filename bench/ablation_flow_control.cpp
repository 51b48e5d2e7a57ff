// Ablation: credit sizing vs the bandwidth-delay product. Section 5.1
// notes that VC buffering is a first-order router cost; this bench shows
// the classic trade-off on the low-depth embedding: throughput ramps with
// per-VC credits until they cover the credit round trip
// (2 * link_latency), after which more buffering buys nothing. The
// (latency, credits) grid fans out across a core::SweepRunner
// (--threads N).

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_json.hpp"
#include "core/planner.hpp"
#include "core/sweep_runner.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv, {"engine", "threads"});
  const simnet::SimEngine engine = bench::engine_arg(args);
  const auto plan = core::AllreducePlanner(7).build();
  const long long m = 20000;

  std::printf("Flow-control sizing on PolarFly q=7 low-depth trees, "
              "m=%lld\n\n", m);

  struct Point {
    int latency;
    int credits;
  };
  std::vector<Point> grid;
  for (int latency : {2, 8}) {
    for (int credits : {1, 2, 4, 8, 16, 32}) grid.push_back({latency, credits});
  }

  struct PointResult {
    double bw = 0.0;
    bool correct = false;
  };
  core::SweepRunner runner(args.threads());
  const auto results = runner.map<PointResult>(
      static_cast<int>(grid.size()), [&](const core::SweepTask& task) {
        const Point& p = grid[static_cast<std::size_t>(task.index)];
        simnet::SimConfig cfg;
        cfg.engine = engine;
        cfg.link_latency = p.latency;
        cfg.vc_credits = p.credits;
        const auto res = plan.simulate(m, cfg);
        return PointResult{res.sim.aggregate_bandwidth,
                           res.sim.values_correct};
      });

  util::Table table({"link latency", "VC credits", "round trip", "sim BW",
                     "fraction of Alg.1"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    if (!results[i].correct) {
      std::fprintf(stderr, "correctness check failed\n");
      return 1;
    }
    table.add(grid[i].latency, grid[i].credits, 2 * grid[i].latency,
              results[i].bw, results[i].bw / plan.aggregate_bandwidth());
  }
  table.print(std::cout);
  std::printf(
      "\nShape check: bandwidth saturates once credits >= ~2*latency (the\n"
      "round trip); undersized buffers throttle throughput to\n"
      "credits/round-trip but never break correctness.\n");
  return 0;
}
