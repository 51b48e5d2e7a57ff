// Reproduces Table 2: all non-Hamiltonian maximal alternating-sum
// non-repeating paths in S_4 with difference set {0, 1, 4, 14, 16}
// (reversals excluded, as in the paper).

#include <cstdio>
#include <iostream>

#include "singer/paths.hpp"
#include "util/args.hpp"
#include "util/numeric.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  // Reads no flags: any argument, --help included, fails here.
  const pfar::util::Args args(argc, argv, {});
  using namespace pfar;
  const auto d = singer::build_difference_set(4);
  std::printf("Table 2: non-Hamiltonian maximal alternating-sum paths in "
              "S_4, D = {");
  for (std::size_t i = 0; i < d.elements.size(); ++i) {
    std::printf("%s%lld", i ? ", " : "", d.elements[i]);
  }
  std::printf("}, N = %lld\n\n", d.n);

  util::Table table({"d0", "d1", "gcd(d0-d1, N)", "# vertices k", "b1",
                     "bk"});
  for (std::size_t i = 0; i < d.elements.size(); ++i) {
    for (std::size_t j = 0; j < d.elements.size(); ++j) {
      if (i == j) continue;
      const long long d0 = d.elements[i], d1 = d.elements[j];
      if (d0 > d1) continue;  // exclude reversals
      const long long g = util::gcd_ll(d0 - d1, d.n);
      if (g == 1) continue;  // Hamiltonian: not in this table
      const auto path = singer::build_alternating_path(d, d0, d1);
      table.add(d0, d1, g, static_cast<long long>(path.vertices.size()),
                path.vertices.front(), path.vertices.back());
    }
  }
  table.print(std::cout);
  std::printf("\nPaper's rows: (0,14,k=3,7,0) (1,4,k=7,2,11) "
              "(1,16,k=7,8,11) (4,16,k=7,8,2)\n");
  return 0;
}
