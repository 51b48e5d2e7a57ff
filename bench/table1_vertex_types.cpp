// Reproduces Table 1: vertex counts of each type (W, V1, V2) in ER_q and
// in the neighborhood of a vertex of each type, verified constructively
// for every odd prime power radix in the paper's range.

#include <cstdio>
#include <iostream>

#include "polarfly/erq.hpp"
#include "util/args.hpp"
#include "util/numeric.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  // Reads no flags: any argument, --help included, fails here.
  const pfar::util::Args args(argc, argv, {});
  using namespace pfar;
  std::printf("Table 1: vertex-type counts in ER_q (constructed vs formula)\n\n");

  util::Table table({"q", "|W|", "q+1", "|V1|", "q(q+1)/2", "|V2|",
                     "q(q-1)/2", "match"});
  for (int q : util::prime_powers_in(3, 49)) {
    if (q % 2 == 0) continue;  // Table 1 covers odd q
    const polarfly::PolarFly pf(q);
    const int w = pf.count(polarfly::VertexType::kQuadric);
    const int v1 = pf.count(polarfly::VertexType::kV1);
    const int v2 = pf.count(polarfly::VertexType::kV2);
    const bool match = w == q + 1 && v1 == q * (q + 1) / 2 &&
                       v2 == q * (q - 1) / 2;
    table.add(q, w, q + 1, v1, q * (q + 1) / 2, v2, q * (q - 1) / 2, match);
  }
  table.print(std::cout);

  // Per-neighborhood half of Table 1, checked at a representative q.
  const int q = 11;
  const polarfly::PolarFly pf(q);
  std::printf("\nNeighborhood composition for q = %d "
              "(rows: vertex type; columns: neighbor type):\n\n", q);
  util::Table nbr({"type of v", "W nbrs", "V1 nbrs", "V2 nbrs", "expected"});
  const char* names[] = {"W", "V1", "V2"};
  for (int t = 0; t < 3; ++t) {
    // Find one vertex of this type; Table 1 says the counts are uniform
    // per type (the test suite verifies uniformity for all vertices).
    int v = -1;
    for (int u = 0; u < pf.n(); ++u) {
      if (static_cast<int>(pf.type(u)) == t) {
        v = u;
        break;
      }
    }
    int nw = 0, nv1 = 0, nv2 = 0;
    for (int u : pf.graph().neighbors(v)) {
      switch (pf.type(u)) {
        case polarfly::VertexType::kQuadric: ++nw; break;
        case polarfly::VertexType::kV1: ++nv1; break;
        case polarfly::VertexType::kV2: ++nv2; break;
      }
    }
    char expected[64];
    if (t == 0) {
      std::snprintf(expected, sizeof(expected), "0 / q / 0");
    } else if (t == 1) {
      std::snprintf(expected, sizeof(expected), "2 / (q-1)/2 / (q-1)/2");
    } else {
      std::snprintf(expected, sizeof(expected), "0 / (q+1)/2 / (q+1)/2");
    }
    nbr.add(names[t], nw, nv1, nv2, expected);
  }
  nbr.print(std::cout);
  return 0;
}
