// Reproduces Figure 4: maximal sets of floor((q+1)/2) edge-disjoint
// Hamiltonian paths for q = 3 and q = 4, printing each path's color pair,
// endpoints and vertex sequence, and the edge coverage of S_q.

#include <cstdio>
#include <iostream>

#include "singer/disjoint.hpp"
#include "singer/singer_graph.hpp"
#include "util/args.hpp"

namespace {

void report(int q) {
  using namespace pfar;
  const singer::SingerGraph s(q);
  const auto& d = s.difference_set();
  const auto set = singer::find_disjoint_hamiltonians(d);

  std::printf("-- q = %d: %d edge-disjoint Hamiltonian paths "
              "(bound floor((q+1)/2) = %d) --\n",
              q, set.size(), singer::disjoint_hamiltonian_upper_bound(q));
  long long covered = 0;
  for (const auto& path : set.paths) {
    std::printf("colors (%lld, %lld): ", path.d0, path.d1);
    for (std::size_t i = 0; i < path.vertices.size(); ++i) {
      std::printf("%s%lld", i ? "-" : "", path.vertices[i]);
    }
    std::printf("\n");
    covered += path.length();
  }
  std::printf("edges covered: %lld of %d (%s)\n\n", covered,
              s.graph().num_edges(),
              covered == s.graph().num_edges()
                  ? "all edges used"
                  : "one color class unused, as Figure 4b notes for q = 4");
}

}  // namespace

int main(int argc, char** argv) {
  // Reads no flags: any argument, --help included, fails here.
  const pfar::util::Args args(argc, argv, {});
  std::printf("Figure 4: maximal sets of edge-disjoint Hamiltonian paths\n\n");
  report(3);
  report(4);
  return 0;
}
