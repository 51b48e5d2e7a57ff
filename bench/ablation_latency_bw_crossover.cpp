// Ablation of the paper's central design trade-off (Section 7.3): the
// depth-3 congestion-2 trees versus the deep congestion-free Hamiltonian
// trees. Sweeps the vector size to locate the crossover and reports the
// in-network resource cost (VC state per link) of each solution.

#include <cstdio>
#include <iostream>

#include "bench_json.hpp"
#include "core/planner.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv, {"engine"});
  simnet::SimConfig sim_config;
  sim_config.engine = bench::engine_arg(args);
  std::printf("Ablation: latency (depth) vs bandwidth (congestion) "
              "trade-off\n\n");

  util::Table res({"q", "solution", "trees", "depth", "max VCs/link",
                   "agg BW xB"});
  util::Table cross({"q", "m", "low-depth cycles", "edge-disjoint cycles",
                     "winner"});
  for (int q : {5, 9, 13}) {
    const auto ld =
        core::AllreducePlanner(q).solution(core::Solution::kLowDepth).build();
    const auto ed = core::AllreducePlanner(q)
                        .solution(core::Solution::kEdgeDisjoint)
                        .build();
    // Resource requirements come out of the simulator's VC accounting.
    const auto ld_probe = ld.simulate(64, sim_config);
    const auto ed_probe = ed.simulate(64, sim_config);
    res.add(q, "low-depth", ld.num_trees(), ld.max_depth(),
            ld_probe.sim.max_vcs_per_link, ld.aggregate_bandwidth());
    res.add(q, "edge-disjoint", ed.num_trees(), ed.max_depth(),
            ed_probe.sim.max_vcs_per_link, ed.aggregate_bandwidth());

    for (long long m : {64LL, 1024LL, 8192LL, 32768LL}) {
      const auto a = ld.simulate(m, sim_config);
      const auto b = ed.simulate(m, sim_config);
      cross.add(q, m, a.sim.cycles, b.sim.cycles,
                a.sim.cycles <= b.sim.cycles ? "low-depth" : "edge-disjoint");
    }
  }
  res.print(std::cout);
  std::printf("\nCrossover sweep:\n");
  cross.print(std::cout);
  std::printf(
      "\nShape check: the low-depth solution needs 2 VCs on shared links\n"
      "(congestion 2) but wins at small m; the edge-disjoint solution needs\n"
      "only 1 VC per link and wins once m amortizes its (N-1)/2 depth.\n");
  return 0;
}
