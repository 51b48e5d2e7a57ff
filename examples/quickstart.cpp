// Quickstart: build both of the paper's Allreduce solutions on a PolarFly
// of your chosen q, print their analytic properties, and run a cycle-level
// simulation of one Allreduce.
//
//   ./quickstart --q 7 --m 20000

#include <cstdio>
#include <iostream>

#include "core/planner.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const pfar::util::Args args(argc, argv, {"q", "m"});
  const int q = static_cast<int>(args.get_int("q", 7));
  const long long m = args.get_int("m", 20000);

  std::printf("PolarFly ER_%d: N = %d nodes, radix %d\n", q, q * q + q + 1,
              q + 1);
  std::printf("Optimal in-network Allreduce bandwidth (Cor 7.1): %.1f x B\n\n",
              (q + 1) / 2.0);

  pfar::util::Table table({"solution", "trees", "depth", "congestion",
                           "agg BW (xB)", "sim cycles", "sim BW (elem/cyc)",
                           "correct"});

  for (const auto solution : {pfar::core::Solution::kSingleTree,
                              pfar::core::Solution::kLowDepth,
                              pfar::core::Solution::kEdgeDisjoint}) {
    const auto plan =
        pfar::core::AllreducePlanner(q).solution(solution).build();
    const auto result = plan.simulate(m);
    table.add(pfar::core::to_string(solution), plan.num_trees(),
              plan.max_depth(), plan.max_congestion(),
              plan.aggregate_bandwidth(), result.sim.cycles,
              result.sim.aggregate_bandwidth, result.sim.values_correct);
  }
  table.print(std::cout);
  return 0;
}
