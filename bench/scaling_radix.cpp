// The paper's headline scaling claim (Sections 2 and 8): multi-tree
// in-network Allreduce boosts bandwidth proportionally to the network
// radix — "more than an order of magnitude for high-radix networks". This
// bench sweeps PolarFly design points and reports the simulated speedup of
// both solutions over the single-link-bound single-tree offload. The
// (q, solution) grid fans out across a core::SweepRunner (--threads N).

#include <algorithm>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_json.hpp"
#include "core/planner.hpp"
#include "core/sweep_runner.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

struct Point {
  int q;
  pfar::core::Solution solution;
};

struct PointResult {
  int nodes = 0;
  double bw = 0.0;
  bool correct = false;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv, {"engine", "threads"});
  simnet::SimConfig sim_config;
  sim_config.engine = bench::engine_arg(args);
  std::printf("Radix scaling of simulated Allreduce bandwidth "
              "(m = 20000 elements)\n\n");

  const std::vector<int> qs = {3, 5, 7, 9, 11, 13};
  const std::vector<core::Solution> solutions = {
      core::Solution::kSingleTree, core::Solution::kLowDepth,
      core::Solution::kEdgeDisjoint};
  const long long m = 20000;

  std::vector<Point> grid;
  for (int q : qs) {
    for (const auto solution : solutions) grid.push_back({q, solution});
  }

  core::SweepRunner runner(args.threads());
  const auto results = runner.map<PointResult>(
      static_cast<int>(grid.size()), [&](const core::SweepTask& task) {
        const Point& p = grid[static_cast<std::size_t>(task.index)];
        const auto plan =
            core::AllreducePlanner(p.q).solution(p.solution).build();
        const auto res = plan.simulate(m, sim_config);
        return PointResult{plan.num_nodes(), res.sim.aggregate_bandwidth,
                           res.sim.values_correct};
      });

  util::Table table({"q", "radix", "nodes", "single-tree BW",
                     "low-depth BW", "edge-disjoint BW",
                     "best speedup", "q/2 (theory)"});
  for (std::size_t i = 0; i < qs.size(); ++i) {
    const auto& rs = results[i * 3];      // kSingleTree
    const auto& rl = results[i * 3 + 1];  // kLowDepth
    const auto& re = results[i * 3 + 2];  // kEdgeDisjoint
    if (!rs.correct || !rl.correct || !re.correct) {
      std::fprintf(stderr, "correctness check failed\n");
      return 1;
    }
    const double best = std::max(rl.bw, re.bw);
    table.add(qs[i], qs[i] + 1, rs.nodes, rs.bw, rl.bw, re.bw, best / rs.bw,
              qs[i] / 2.0);
  }
  table.print(std::cout);
  std::printf(
      "\nShape check: the speedup over single-tree grows linearly with the\n"
      "radix (~q/2 for low-depth, (q+1)/2 for edge-disjoint at large m),\n"
      "extrapolating to >30x for the q=64..127 design points of Fig. 5.\n");
  return 0;
}
