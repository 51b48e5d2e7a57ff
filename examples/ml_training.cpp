// Distributed-training scenario (the paper's motivating workload,
// Section 1): data-parallel training performs one large gradient Allreduce
// per step. This example sweeps gradient-bucket sizes and compares, on the
// same PolarFly, the paper's two multi-tree in-network solutions against a
// single-tree in-network offload and host-based ring / recursive-doubling
// baselines.
//
//   ./ml_training --q 7 --dim 48 --layers 6

#include <cstdio>
#include <iostream>
#include <numeric>

#include "collectives/host_allreduce.hpp"
#include "collectives/innetwork.hpp"
#include "core/planner.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv, {"q", "dim", "layers"});
  const int q = static_cast<int>(args.get_int("q", 7));
  if (q % 2 == 0) {
    std::fprintf(stderr, "ml_training: odd prime power q required\n");
    return 1;
  }

  const auto low_depth =
      core::AllreducePlanner(q).solution(core::Solution::kLowDepth).build();
  const auto disjoint =
      core::AllreducePlanner(q).solution(core::Solution::kEdgeDisjoint).build();
  const auto single =
      core::AllreducePlanner(q).solution(core::Solution::kSingleTree).build();

  const collectives::RoutedNetwork routed(low_depth.topology());
  std::vector<int> placement(static_cast<std::size_t>(low_depth.num_nodes()));
  std::iota(placement.begin(), placement.end(), 0);

  // Host baselines costed with alpha = link latency, beta = 1 element/cycle
  // (same units as the simulator).
  const double alpha = simnet::SimConfig{}.link_latency;

  std::printf(
      "Gradient Allreduce on PolarFly q=%d (%d nodes). Times in cycles;\n"
      "speedup is host-ring time / in-network multi-tree time.\n\n",
      q, low_depth.num_nodes());

  util::Table table({"bucket (elems)", "low-depth", "edge-disjoint",
                     "single-tree", "host ring", "recursive dbl",
                     "speedup vs ring"});
  for (long long m : {1000LL, 10000LL, 100000LL}) {
    const auto ld = low_depth.simulate(m);
    const auto ed = disjoint.simulate(m);
    const auto st = single.simulate(m);
    const auto ring = collectives::run_host_baseline(
        collectives::HostAlgorithm::kRing, routed, placement, m, alpha, 1.0);
    const auto rdbl = collectives::run_host_baseline(
        collectives::HostAlgorithm::kRecursiveDoubling, routed, placement, m,
        alpha, 1.0);
    if (!ld.sim.values_correct || !ed.sim.values_correct ||
        !st.sim.values_correct || !ring.correct || !rdbl.correct) {
      std::fprintf(stderr, "correctness check failed\n");
      return 1;
    }
    table.add(m, ld.sim.cycles, ed.sim.cycles, st.sim.cycles,
              ring.cost.total_time, rdbl.cost.total_time,
              ring.cost.total_time / static_cast<double>(ld.sim.cycles));
  }
  table.print(std::cout);

  std::printf(
      "\nShape check: the multi-tree in-network solutions win by about\n"
      "q/2 = %.1fx over the single-tree offload at large buckets, matching\n"
      "the paper's bandwidth analysis.\n",
      q / 2.0);

  // --- One full training step with a transformer-like gradient bucket
  // sequence (the workload shape that motivates the paper: per-layer
  // gradients fused into buckets and all-reduced back-to-back). ---
  const int dim = static_cast<int>(args.get_int("dim", 48));
  const int layers = static_cast<int>(args.get_int("layers", 6));
  std::vector<long long> buckets;
  for (int l = 0; l < layers; ++l) {
    buckets.push_back(4LL * dim * dim);  // attention qkv + out proj
    buckets.push_back(8LL * dim * dim);  // mlp up + down
  }
  buckets.push_back(2LL * dim * 1000);  // embeddings / head slice

  long long total = 0;
  for (long long b : buckets) total += b;
  std::printf("\nTransformer-like step: %zu gradient buckets, %lld elements "
              "total (d=%d, %d layers)\n\n",
              buckets.size(), total, dim, layers);

  auto step_cycles = [&](const core::AllreducePlan& plan) {
    long long cycles = 0;
    for (long long b : buckets) {
      const auto r = plan.simulate(b);
      if (!r.sim.values_correct) return -1LL;
      cycles += r.sim.cycles;
    }
    return cycles;
  };
  const long long c_ld = step_cycles(low_depth);
  const long long c_ed = step_cycles(disjoint);
  const long long c_st = step_cycles(single);
  if (c_ld < 0 || c_ed < 0 || c_st < 0) {
    std::fprintf(stderr, "correctness check failed\n");
    return 1;
  }
  util::Table step({"scheme", "step allreduce cycles", "vs single-tree"});
  step.add("low-depth", c_ld,
           static_cast<double>(c_st) / static_cast<double>(c_ld));
  step.add("edge-disjoint", c_ed,
           static_cast<double>(c_st) / static_cast<double>(c_ed));
  step.add("single-tree", c_st, 1.0);
  step.print(std::cout);
  return 0;
}
