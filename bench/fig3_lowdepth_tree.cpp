// Reproduces Figure 3: the level-by-level structure of one depth-3
// Allreduce spanning tree T_i from Algorithm 3, showing which vertex
// classes land at each level.

#include <algorithm>
#include <cstdio>
#include <iostream>

#include "polarfly/layout.hpp"
#include "trees/low_depth.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  // Reads no flags: any argument, --help included, fails here.
  const pfar::util::Args args(argc, argv, {});
  using namespace pfar;
  const int q = 11;
  const polarfly::PolarFly pf(q);
  const auto layout = polarfly::build_layout(pf);
  const auto ts = trees::build_low_depth_trees(pf, layout);
  const auto& t = ts[0];

  std::printf("Figure 3: structure of low-depth tree T_0 on PolarFly q = %d\n",
              q);
  std::printf("root = center v_0 = %d of cluster C_0\n\n", t.root());

  util::Table table({"level", "total", "quadrics", "cluster centers",
                     "C_0 members", "other non-centers"});
  for (int level = 0; level <= t.depth(); ++level) {
    int total = 0, quadrics = 0, centers = 0, own = 0, other = 0;
    for (int v = 0; v < pf.n(); ++v) {
      if (t.level(v) != level) continue;
      ++total;
      const bool is_center =
          std::find(layout.centers.begin(), layout.centers.end(), v) !=
          layout.centers.end();
      if (pf.is_quadric(v)) {
        ++quadrics;
      } else if (is_center && v != t.root()) {
        ++centers;
      } else if (layout.cluster_of[static_cast<std::size_t>(v)] == 0) {
        ++own;
      } else {
        ++other;
      }
    }
    table.add(level, total, quadrics, centers, own, other);
  }
  table.print(std::cout);

  std::printf(
      "\nExpected shape (Figure 3): level 0 = root; level 1 = q-1 cluster\n"
      "mates + starter quadric w + non-starter w_0 (= %d vertices);\n"
      "level 2 = remaining quadrics and non-center vertices of other\n"
      "clusters; level 3 = the q-1 = %d other cluster centers.\n",
      q + 1, q - 1);
  return 0;
}
