// Reproduces Figure 5b: tree depth (the latency proxy) of the two
// solutions across radixes — constant 3 for the low-depth trees versus
// (N-1)/2 (quadratic in q) for midpoint-rooted Hamiltonian paths.
// Depths are verified constructively for moderate q and by formula beyond.

#include <cstdio>
#include <iostream>

#include "polarfly/layout.hpp"
#include "singer/disjoint.hpp"
#include "trees/hamiltonian.hpp"
#include "trees/low_depth.hpp"
#include "util/args.hpp"
#include "util/numeric.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const pfar::util::Args args(argc, argv, {"csv"});
  using namespace pfar;
  std::printf("Figure 5b: tree depth comparison (latency is proportional "
              "to depth)\n\n");

  constexpr int kConstructiveLimit = 27;

  util::Table table({"radix q+1", "q", "N", "low-depth", "Hamiltonian depth",
                     "(N-1)/2", "source"});
  for (int q : util::prime_powers_in(2, 128)) {
    const int n = q * q + q + 1;
    std::string ld = q % 2 == 1 ? "3" : "-";
    long long ham_depth = (n - 1) / 2;
    std::string source = "formula";
    if (q <= kConstructiveLimit) {
      source = "constructed";
      const auto d = singer::build_difference_set(q);
      const auto set = singer::find_disjoint_hamiltonians(d);
      const auto ham = trees::hamiltonian_trees(set);
      ham_depth = ham.front().depth();
      if (q % 2 == 1) {
        const polarfly::PolarFly pf(q);
        const auto ts =
            trees::build_low_depth_trees(pf, polarfly::build_layout(pf));
        int depth = 0;
        for (const auto& t : ts) depth = std::max(depth, t.depth());
        ld = std::to_string(depth);
      }
    }
    table.add(q + 1, q, n, ld, ham_depth, (n - 1) / 2, source);
  }
  if (args.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  std::printf(
      "\nShape check (paper): low-depth solution has constant depth 3;\n"
      "Hamiltonian depth grows quadratically with the radix.\n");
  return 0;
}
