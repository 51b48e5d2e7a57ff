// Ablations of two construction choices:
//  (1) Section 7.3's randomized maximal-independent-set selection of
//      disjoint Hamiltonian pairs (paper's method, 30 attempts) versus the
//      exact maximum-matching formulation in this library.
//  (2) Starter-quadric choice in Algorithm 2/3: the layout theorem holds
//      for any starter, so bandwidth and depth must be invariant.
// Also reports the optimal-vs-uniform vector split of Theorem 5.1 on an
// asymmetric tree set.

#include <cstdio>
#include <iostream>

#include "bench_json.hpp"
#include "collectives/innetwork.hpp"
#include "model/congestion_model.hpp"
#include "polarfly/layout.hpp"
#include "singer/disjoint.hpp"
#include "trees/low_depth.hpp"
#include "util/args.hpp"
#include "util/numeric.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv, {"engine"});
  simnet::SimConfig sim_config;
  sim_config.engine = bench::engine_arg(args);

  std::printf("Ablation 1: random-MIS (paper Sec. 7.3) vs maximum matching\n\n");
  util::Table mis({"q", "bound", "matching", "random(1)", "random(5)",
                   "random(30)"});
  util::Rng rng(7);
  for (int q : {5, 9, 13, 17, 25, 27, 31}) {
    const auto d = singer::build_difference_set(q);
    const int exact = singer::find_disjoint_hamiltonians(d).size();
    const int r1 = singer::find_disjoint_hamiltonians_random(d, rng, 1).size();
    const int r5 = singer::find_disjoint_hamiltonians_random(d, rng, 5).size();
    const int r30 =
        singer::find_disjoint_hamiltonians_random(d, rng, 30).size();
    mis.add(q, singer::disjoint_hamiltonian_upper_bound(q), exact, r1, r5,
            r30);
  }
  mis.print(std::cout);
  std::printf("\n(The paper found the maximum within 30 random instances for "
              "all q < 128;\n the matching method is exact by construction.)\n");

  std::printf("\nAblation 2: starter-quadric invariance of Algorithm 3\n\n");
  util::Table starters({"q", "starter index", "agg BW xB", "max depth",
                        "congestion"});
  for (int q : {5, 9}) {
    const polarfly::PolarFly pf(q);
    for (int s = 0; s <= q; s += (q + 1) / 3) {
      const auto layout = polarfly::build_layout(pf, s);
      const auto ts = trees::build_low_depth_trees(pf, layout);
      const auto bw = model::compute_tree_bandwidths(pf.graph(), ts, 1.0);
      int depth = 0;
      for (const auto& t : ts) depth = std::max(depth, t.depth());
      starters.add(q, s, bw.aggregate, depth,
                   trees::max_congestion(pf.graph(), ts));
    }
  }
  starters.print(std::cout);

  std::printf("\nAblation 3: Theorem 5.1 optimal split vs uniform split\n\n");
  // Asymmetric set on K4: two trees sharing a chain (B=1/2 each) plus one
  // disjoint tree (B=1): uniform splitting starves the fast tree.
  graph::Graph g(4);
  for (int i = 0; i < 4; ++i) {
    for (int j = i + 1; j < 4; ++j) g.add_edge(i, j);
  }
  g.finalize();
  const std::vector<trees::SpanningTree> ts{
      trees::SpanningTree(0, {-1, 0, 1, 2}),
      trees::SpanningTree(0, {-1, 0, 1, 2}),
      trees::SpanningTree(0, {-1, 3, 0, 0}),
  };
  util::Table split({"m", "optimal cycles", "uniform cycles", "penalty"});
  for (long long m : {6000LL, 24000LL}) {
    const auto opt = collectives::run_innetwork_allreduce(
        g, ts, m, sim_config, collectives::SplitPolicy::kOptimal);
    const auto uni = collectives::run_innetwork_allreduce(
        g, ts, m, sim_config, collectives::SplitPolicy::kUniform);
    split.add(m, opt.sim.cycles, uni.sim.cycles,
              static_cast<double>(uni.sim.cycles) /
                  static_cast<double>(opt.sim.cycles));
  }
  split.print(std::cout);
  return 0;
}
