// Latency-vs-offered-load curves of the underlying network fabric:
// PolarFly against a 2D torus and a hypercube of comparable node count
// under uniform traffic. Supports the Section 1.3 positioning ("PolarFly
// has been shown to outperform previous networks ... in scaling
// efficiency, bisection width, and performance per cost") with the same
// virtual cut-through router model used throughout this library. Every
// (topology, rate) point is independent, so the whole grid fans out
// across a core::SweepRunner (--threads N).

#include <cstdio>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "core/sweep_runner.hpp"
#include "polarfly/erq.hpp"
#include "simnet/traffic_sim.hpp"
#include "topo/topologies.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace pfar;

struct Curve {
  std::string name;
  graph::Graph graph;
  simnet::Routing routing;
};

constexpr double kRates[] = {0.02, 0.05, 0.10, 0.20, 0.30, 0.45};

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv, {"threads"});
  std::printf("Uniform-traffic latency/throughput, virtual cut-through "
              "routers (4-flit packets)\n\n");

  const polarfly::PolarFly pf(7);  // 57 nodes, radix 8, diameter 2
  std::vector<Curve> curves;
  curves.push_back(
      {"PolarFly q=7 (57n)", pf.graph(), simnet::Routing::kMinimal});
  curves.push_back(
      {"PolarFly q=7 Valiant", pf.graph(), simnet::Routing::kValiant});
  curves.push_back(
      {"SlimFly q=5 (50n)", topo::slimfly(5), simnet::Routing::kMinimal});
  curves.push_back(
      {"torus 8x7 (56n)", topo::torus({8, 7}), simnet::Routing::kMinimal});
  curves.push_back(
      {"hypercube d=6 (64n)", topo::hypercube(6), simnet::Routing::kMinimal});

  // Share one simulator (and its BFS routing tables) per topology; run()
  // is const and every design point carries its own RNG stream.
  std::vector<std::unique_ptr<simnet::TrafficSimulator>> sims;
  sims.reserve(curves.size());
  for (const auto& curve : curves) {
    sims.push_back(std::make_unique<simnet::TrafficSimulator>(curve.graph));
  }

  const int rates = static_cast<int>(sizeof(kRates) / sizeof(kRates[0]));
  core::SweepRunner runner(args.threads());
  const auto results = runner.map<simnet::TrafficResult>(
      static_cast<int>(curves.size()) * rates,
      [&](const core::SweepTask& task) {
        const int c = task.index / rates;
        simnet::TrafficConfig cfg;
        cfg.routing = curves[static_cast<std::size_t>(c)].routing;
        cfg.injection_rate = kRates[task.index % rates];
        cfg.warmup_cycles = 2000;
        cfg.measure_packets = 15000;
        cfg.max_cycles = 400'000;
        return sims[static_cast<std::size_t>(c)]->run(cfg);
      });

  util::Table table({"topology", "offered load", "avg latency", "p99",
                     "avg hops", "throughput"});
  for (std::size_t c = 0; c < curves.size(); ++c) {
    for (int i = 0; i < rates; ++i) {
      const auto& r = results[c * rates + static_cast<std::size_t>(i)];
      if (r.saturated) {
        table.add(curves[c].name, kRates[i], "saturated", "-", "-", "-");
      } else {
        table.add(curves[c].name, kRates[i], r.avg_latency, r.p99_latency,
                  r.avg_hops, r.throughput);
      }
    }
  }
  table.print(std::cout);
  std::printf(
      "\nShape check: PolarFly's diameter-2 paths give the lowest zero-load\n"
      "latency and it sustains higher injection rates than the equal-size\n"
      "torus before saturating (more links + shorter paths).\n");
  return 0;
}
