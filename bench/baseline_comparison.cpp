// The paper's positioning experiment (Sections 1 and 8): multi-tree
// in-network Allreduce versus (a) a single-tree in-network offload
// (SHARP-like, capped at one link bandwidth) and (b) host-based ring,
// recursive-doubling and recursive-halving+doubling, all on the same
// PolarFly with identical link parameters.

#include <cstdio>
#include <iostream>
#include <numeric>

#include "bench_json.hpp"
#include "collectives/host_allreduce.hpp"
#include "core/planner.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv, {"engine"});
  simnet::SimConfig sim_config;
  sim_config.engine = bench::engine_arg(args);
  const int q = 7;
  const auto low_depth =
      core::AllreducePlanner(q).solution(core::Solution::kLowDepth).build();
  const auto disjoint =
      core::AllreducePlanner(q).solution(core::Solution::kEdgeDisjoint).build();
  const auto single =
      core::AllreducePlanner(q).solution(core::Solution::kSingleTree).build();

  const collectives::RoutedNetwork routed(low_depth.topology());
  std::vector<int> placement(static_cast<std::size_t>(low_depth.num_nodes()));
  std::iota(placement.begin(), placement.end(), 0);
  const double alpha = simnet::SimConfig{}.link_latency;

  std::printf("Allreduce time (cycles) on PolarFly q=%d, N=%d, radix %d\n\n",
              q, low_depth.num_nodes(), q + 1);

  util::Table table({"m", "low-depth", "edge-disj.", "single-tree",
                     "ring", "rec-dbl", "halv-dbl",
                     "multi/single speedup", "multi/ring speedup"});
  for (long long m : {100LL, 1000LL, 10000LL, 50000LL}) {
    const auto ld = low_depth.simulate(m, sim_config);
    const auto ed = disjoint.simulate(m, sim_config);
    const auto st = single.simulate(m, sim_config);
    const auto ring = collectives::run_host_baseline(
        collectives::HostAlgorithm::kRing, routed, placement, m, alpha, 1.0);
    const auto rdbl = collectives::run_host_baseline(
        collectives::HostAlgorithm::kRecursiveDoubling, routed, placement, m,
        alpha, 1.0);
    const auto hd = collectives::run_host_baseline(
        collectives::HostAlgorithm::kHalvingDoubling, routed, placement, m,
        alpha, 1.0);
    if (!ld.sim.values_correct || !ed.sim.values_correct ||
        !st.sim.values_correct || !ring.correct || !rdbl.correct ||
        !hd.correct) {
      std::fprintf(stderr, "correctness check failed\n");
      return 1;
    }
    const long long best_multi = std::min(ld.sim.cycles, ed.sim.cycles);
    table.add(m, ld.sim.cycles, ed.sim.cycles, st.sim.cycles,
              ring.cost.total_time, rdbl.cost.total_time, hd.cost.total_time,
              static_cast<double>(st.sim.cycles) / static_cast<double>(best_multi),
              ring.cost.total_time / static_cast<double>(best_multi));
  }
  table.print(std::cout);
  std::printf(
      "\nShape check: for large m the multi-tree solutions beat the\n"
      "single-tree offload by ~q/2 = %.1fx (Cor 7.7) and beat host-based\n"
      "schemes by an even larger margin (no multi-round traffic).\n",
      q / 2.0);
  return 0;
}
