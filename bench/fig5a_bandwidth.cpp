// Reproduces Figure 5a: aggregate Allreduce bandwidth of the two
// solutions, normalized against the optimal (q+1)B/2 (Corollary 7.1), for
// every prime-power q with radix q+1 in [3, 129].
//
// The Hamiltonian series is obtained constructively for every q (difference
// set + maximum matching on the element graph); the low-depth series is
// obtained by running Algorithm 1 on the actual Algorithm 3 trees for odd
// q (the paper's published layout covers odd q only).

#include <cstdio>
#include <iostream>

#include "model/congestion_model.hpp"
#include "polarfly/layout.hpp"
#include "singer/disjoint.hpp"
#include "trees/low_depth.hpp"
#include "util/args.hpp"
#include "util/numeric.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  const pfar::util::Args args(argc, argv, {"csv"});
  using namespace pfar;
  std::printf("Figure 5a: Allreduce bandwidth normalized to optimal "
              "(q+1)B/2\n\n");

  util::Table table({"radix q+1", "q", "optimal xB", "Ham. trees",
                     "Ham. norm.", "low-depth xB", "low-depth norm."});
  bool all_ham_optimal_odd = true;
  for (int q : util::prime_powers_in(2, 128)) {
    const double optimal = (q + 1) / 2.0;

    // Edge-disjoint Hamiltonian solution: constructive, all q.
    const auto d = singer::build_difference_set(q);
    const auto set = singer::find_disjoint_hamiltonians(d);
    const double ham_bw = set.size();  // Theorem 7.19: t * B
    if (q % 2 == 1 && set.size() != (q + 1) / 2) all_ham_optimal_odd = false;

    // Low-depth solution: Algorithm 3 for odd q; our reconstruction of
    // the paper's unpublished even-q analogue otherwise (marked with *).
    std::string ld = "-", ld_norm = "-";
    {
      const polarfly::PolarFly pf(q);
      const auto ts =
          q % 2 == 1
              ? trees::build_low_depth_trees(pf, polarfly::build_layout(pf))
              : trees::build_low_depth_trees_even(pf);
      const auto bw = model::compute_tree_bandwidths(pf.graph(), ts, 1.0);
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%.1f%s", bw.aggregate,
                    q % 2 == 0 ? "*" : "");
      ld = buf;
      std::snprintf(buf, sizeof(buf), "%.4f", bw.aggregate / optimal);
      ld_norm = buf;
    }
    char norm[32];
    std::snprintf(norm, sizeof(norm), "%.4f", ham_bw / optimal);
    table.add(q + 1, q, optimal, set.size(), norm, ld, ld_norm);
  }
  if (args.has("csv")) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  std::printf(
      "\nShape check (paper): Hamiltonian solution is optimal (1.0) for all\n"
      "odd q — %s; the low-depth solution is q/(q+1), approaching 1.0 for\n"
      "high-radix routers. Rows marked * use this library's reconstruction\n"
      "of the paper's unpublished even-q low-depth solution ((q-1)/2 x B).\n",
      all_ham_optimal_odd ? "confirmed" : "VIOLATED");
  return 0;
}
