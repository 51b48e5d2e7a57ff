// Full diagnostic report for one PolarFly design point: both graph
// constructions, the layout, the difference set, and both tree solutions.
//
//   ./topology_report --q 11

#include <cstdio>
#include <iostream>
#include <string>

#include "model/congestion_model.hpp"
#include "polarfly/layout.hpp"
#include "singer/disjoint.hpp"
#include "singer/singer_graph.hpp"
#include "trees/hamiltonian.hpp"
#include "trees/low_depth.hpp"
#include "util/args.hpp"
#include "util/numeric.hpp"

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv, {"q"});
  const int q = static_cast<int>(args.get_int("q", 11));
  if (!util::is_prime_power(q)) {
    std::fprintf(stderr, "topology_report: q must be a prime power\n");
    return 1;
  }

  // --- Projective construction. ---
  const polarfly::PolarFly pf(q);
  std::printf("== PolarFly ER_%d (projective construction) ==\n", q);
  std::printf("nodes N = %d, links = %d, radix = %d, diameter = %d\n",
              pf.n(), pf.graph().num_edges(), pf.radix(),
              pf.n() <= 1000 ? pf.graph().diameter() : 2);
  std::printf("quadrics |W| = %zu, |V1| = %d, |V2| = %d\n",
              pf.quadrics().size(),
              pf.count(polarfly::VertexType::kV1),
              pf.count(polarfly::VertexType::kV2));

  // --- Singer construction. ---
  const singer::SingerGraph sg(q);
  const auto& d = sg.difference_set();
  std::printf("\n== Singer construction ==\n");
  std::printf("difference set D = {");
  for (std::size_t i = 0; i < d.elements.size(); ++i) {
    std::printf("%s%lld", i ? ", " : "", d.elements[i]);
  }
  std::printf("} over Z_%lld\n", d.n);
  std::printf("reflection points = {");
  const auto refl = singer::reflection_points(d);
  for (std::size_t i = 0; i < refl.size(); ++i) {
    std::printf("%s%lld", i ? ", " : "", refl[i]);
  }
  std::printf("}\n");
  std::printf("alternating-sum Hamiltonian paths: %lld (= phi(N), Cor 7.20)\n",
              singer::count_hamiltonian_paths(d));

  // --- Edge-disjoint solution. ---
  const auto set = singer::find_disjoint_hamiltonians(d);
  std::printf("\n== Edge-disjoint Hamiltonian solution ==\n");
  std::printf("%d edge-disjoint Hamiltonian paths (bound floor((q+1)/2) = %d)\n",
              set.size(), singer::disjoint_hamiltonian_upper_bound(q));
  for (const auto& [d0, d1] : set.pairs) {
    std::printf("  colors (%lld, %lld)\n", d0, d1);
  }
  const auto ham_trees = trees::hamiltonian_trees(set);
  const auto ham_bw = model::compute_tree_bandwidths(sg.graph(), ham_trees, 1.0);
  std::printf("tree depth (midpoint root) = %d, congestion = %d, "
              "aggregate BW = %.1f x B (optimal %.1f)\n",
              ham_trees.front().depth(),
              trees::max_congestion(sg.graph(), ham_trees), ham_bw.aggregate,
              model::optimal_polarfly_bandwidth(q, 1.0));

  // --- Low-depth solution (odd q only). ---
  if (q % 2 == 1) {
    const auto layout = polarfly::build_layout(pf);
    const auto ld_trees = trees::build_low_depth_trees(pf, layout);
    const auto ld_bw = model::compute_tree_bandwidths(pf.graph(), ld_trees, 1.0);
    int max_depth = 0;
    for (const auto& t : ld_trees) max_depth = std::max(max_depth, t.depth());
    std::printf("\n== Low-depth solution (Algorithm 3) ==\n");
    std::printf("%zu trees, depth <= %d, congestion = %d, "
                "aggregate BW = %.1f x B\n",
                ld_trees.size(), max_depth,
                trees::max_congestion(pf.graph(), ld_trees), ld_bw.aggregate);
    std::printf("Lemma 7.8 (opposite reduction flows on shared links): %s\n",
                trees::opposite_reduction_flows(pf.graph(), ld_trees)
                    ? "holds"
                    : "VIOLATED");
  } else {
    std::printf("\n(low-depth layout solution: odd q only; skipped)\n");
  }
  return 0;
}
