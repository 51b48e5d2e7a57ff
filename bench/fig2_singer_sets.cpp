// Reproduces Figure 2: the Singer difference sets and graphs for q = 3 and
// q = 4 — the difference set, the reflection points, and the difference
// table showing every value 1..q^2+q generated exactly once.

#include <cstdio>
#include <iostream>

#include "singer/difference_set.hpp"
#include "singer/singer_graph.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

void report(int q) {
  using namespace pfar;
  const auto d = singer::build_difference_set(q);
  std::printf("-- Singer difference set for q = %d (N = %lld) --\n", q, d.n);
  std::printf("D = {");
  for (std::size_t i = 0; i < d.elements.size(); ++i) {
    std::printf("%s%lld", i ? ", " : "", d.elements[i]);
  }
  std::printf("}\nreflection points (quadrics): {");
  const auto refl = singer::reflection_points(d);
  for (std::size_t i = 0; i < refl.size(); ++i) {
    std::printf("%s%lld", i ? ", " : "", refl[i]);
  }
  std::printf("}\n\nDifference table ((d_i - d_j) mod N; diagonal = set "
              "elements):\n");

  util::Table table([&] {
    std::vector<std::string> h{"d_i \\ d_j"};
    for (long long e : d.elements) h.push_back(std::to_string(e));
    return h;
  }());
  for (long long di : d.elements) {
    std::vector<std::string> row{std::to_string(di)};
    for (long long dj : d.elements) {
      const long long diff = ((di - dj) % d.n + d.n) % d.n;
      if (di == dj) {
        std::string cell = "[";
        cell += std::to_string(di);
        cell += ']';
        row.push_back(std::move(cell));
      } else {
        row.push_back(std::to_string(diff));
      }
    }
    table.add_row(row);
  }
  table.print(std::cout);

  const singer::SingerGraph s(d);
  std::printf("\ngraph: %d vertices, %d edges, degrees %d (reflection) / %d\n\n",
              s.graph().num_vertices(), s.graph().num_edges(), q, q + 1);
}

}  // namespace

int main(int argc, char** argv) {
  // Reads no flags: any argument, --help included, fails here.
  const pfar::util::Args args(argc, argv, {});
  std::printf("Figure 2: Singer difference sets and graphs\n\n");
  report(3);  // paper: D = {0,1,3,9}, reflection {0,7,8,11}
  report(4);  // paper: D = {0,1,4,14,16}, reflection {0,2,7,8,11}
  return 0;
}
