// Reproduces Figure 1: the PolarFly layout for q = 11 — cluster contents
// and the intra-/inter-cluster edge counts that "match up with Properties
// 1-3" (the figure's caption).

#include <cstdio>
#include <iostream>

#include "polarfly/layout.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  // Reads no flags: any argument, --help included, fails here.
  const pfar::util::Args args(argc, argv, {});
  using namespace pfar;
  const int q = 11;
  const polarfly::PolarFly pf(q);
  const auto layout = polarfly::build_layout(pf);
  const auto& g = pf.graph();

  std::printf("Figure 1: PolarFly layout for q = %d (N = %d)\n", q, pf.n());
  std::printf("starter quadric: vertex %d; quadric cluster |W| = %zu\n\n",
              layout.starter_quadric, layout.quadric_cluster.size());

  util::Table prop1({"cluster", "size", "center", "center deg in cluster",
                     "intra-cluster edges"});
  for (std::size_t i = 0; i < layout.clusters.size(); ++i) {
    const auto& c = layout.clusters[i];
    int center_deg = 0;
    for (int v : c) {
      if (v != layout.centers[i] && g.has_edge(layout.centers[i], v)) {
        ++center_deg;
      }
    }
    prop1.add(static_cast<int>(i), static_cast<int>(c.size()),
              layout.centers[i], center_deg,
              polarfly::edges_within(g, c));
  }
  prop1.print(std::cout);

  std::printf("\nProperty 2: edges between W and each C_i (expected q+1 = %d):\n",
              q + 1);
  util::Table prop2({"cluster i", "edges(W, C_i)"});
  for (std::size_t i = 0; i < layout.clusters.size(); ++i) {
    prop2.add(static_cast<int>(i),
              polarfly::edges_between(g, layout.quadric_cluster,
                                      layout.clusters[i]));
  }
  prop2.print(std::cout);

  std::printf("\nProperty 3: edges between distinct clusters "
              "(expected q-2 = %d), sample pairs:\n", q - 2);
  util::Table prop3({"i", "j", "edges(C_i, C_j)"});
  for (int i = 0; i < 3; ++i) {
    for (int j = i + 1; j < 4; ++j) {
      prop3.add(i, j,
                polarfly::edges_between(g, layout.clusters[static_cast<std::size_t>(i)],
                                        layout.clusters[static_cast<std::size_t>(j)]));
    }
  }
  prop3.print(std::cout);
  return 0;
}
