// The paper's positioning claim (Sections 1.2-1.3): direct networks can
// multiply Allreduce bandwidth via concurrent spanning trees, and
// PolarFly's structure yields *provably optimal* sets where generic
// topologies rely on heuristics. This bench compares design points of
// similar size/radix: spanning-tree packing bound, trees actually found
// (greedy DFS packing for generic topologies vs the paper's constructions
// for PolarFly), Algorithm 1 aggregate bandwidth, and simulated bandwidth.

#include <cstdio>
#include <iostream>

#include "bench_json.hpp"
#include "collectives/innetwork.hpp"
#include "core/planner.hpp"
#include "model/congestion_model.hpp"
#include "topo/topologies.hpp"
#include "trees/exact_packing.hpp"
#include "trees/packing.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace pfar;

void add_generic(util::Table& table, const std::string& name,
                 const graph::Graph& g, const simnet::SimConfig& sim_config) {
  const auto stats = topo::describe(name, g);
  // Exact Tutte/Nash-Williams packing (matroid union); greedy shown for
  // contrast with what a cheap heuristic would find.
  const auto greedy = trees::greedy_tree_packing(g);
  const auto trees = trees::exact_tree_packing(g);
  const auto bw = model::compute_tree_bandwidths(g, trees, 1.0);
  const auto res =
      collectives::run_innetwork_allreduce(g, trees, 20000, sim_config);
  table.add(name, stats.nodes, stats.radix, stats.diameter,
            stats.packing_bound, static_cast<int>(greedy.size()),
            static_cast<int>(trees.size()), bw.aggregate,
            res.sim.aggregate_bandwidth, res.sim.values_correct);
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv, {"engine"});
  simnet::SimConfig sim_config;
  sim_config.engine = bench::engine_arg(args);
  std::printf("Multi-tree Allreduce potential across direct topologies\n"
              "(trees for generic topologies: greedy heuristic; for "
              "PolarFly: the paper's constructions)\n\n");

  util::Table table({"topology", "nodes", "radix", "diam", "pack bound",
                     "greedy", "exact", "Alg.1 BW xB", "sim BW", "correct"});

  add_generic(table, "torus 6x6", topo::torus({6, 6}), sim_config);
  add_generic(table, "torus 4x4x4", topo::torus({4, 4, 4}), sim_config);
  add_generic(table, "hypercube d=6", topo::hypercube(6), sim_config);
  add_generic(table, "hyperx 6x6", topo::hyperx({6, 6}), sim_config);
  add_generic(table, "slimfly q=5", topo::slimfly(5), sim_config);

  // PolarFly q = 7 (57 nodes, radix 8) with the paper's two tree sets.
  for (const auto solution :
       {core::Solution::kLowDepth, core::Solution::kEdgeDisjoint}) {
    const auto plan = core::AllreducePlanner(7).solution(solution).build();
    const auto res = plan.simulate(20000, sim_config);
    table.add(std::string("PolarFly q=7 ") + core::to_string(solution),
              plan.num_nodes(), 8, 2,
              topo::tree_packing_bound(plan.topology()), "-",
              plan.num_trees(), plan.aggregate_bandwidth(),
              res.sim.aggregate_bandwidth, res.sim.values_correct);
  }

  table.print(std::cout);
  std::printf(
      "\nShape check: low-radix tori/hypercubes cap at 2-3 concurrent\n"
      "trees; high-radix direct networks (HyperX, PolarFly) support many.\n"
      "PolarFly additionally reaches its packing bound *constructively*\n"
      "with guaranteed congestion <= 2 or 0 (Sections 7.1-7.2), while the\n"
      "generic greedy makes no such guarantee.\n");
  return 0;
}
