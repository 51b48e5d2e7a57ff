// Ablation: packet framing overhead. The paper's model assumes streaming
// at link rate; real devices frame streams into packets with header flits
// (Section 5.1's per-tree state is carried in those headers). This bench
// sweeps packet payload sizes and shows (a) the efficiency loss
// payload/(payload+header) and (b) that the multi-tree bandwidth advantage
// is preserved under framing. The (payload, scheme) grid fans out across
// a core::SweepRunner (--threads N).

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_json.hpp"
#include "core/planner.hpp"
#include "core/sweep_runner.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv, {"engine", "threads"});
  const simnet::SimEngine engine = bench::engine_arg(args);
  const int q = 7;
  const auto plan = core::AllreducePlanner(q).build();
  const auto single =
      core::AllreducePlanner(q).solution(core::Solution::kSingleTree).build();
  const long long m = 20000;

  std::printf("Packet-framing ablation on PolarFly q=%d, m=%lld "
              "(header = 2 flits)\n\n", q, m);

  const std::vector<int> payloads = {1, 2, 4, 8, 16, 32};

  struct PointResult {
    double bw = 0.0;
    bool correct = false;
  };
  // Even indices simulate the multi-tree plan, odd the single-tree one.
  core::SweepRunner runner(args.threads());
  const auto results = runner.map<PointResult>(
      static_cast<int>(payloads.size()) * 2,
      [&](const core::SweepTask& task) {
        simnet::SimConfig cfg;
        cfg.engine = engine;
        cfg.packet_payload = payloads[static_cast<std::size_t>(task.index / 2)];
        cfg.packet_header_flits = 2;
        const auto& target = task.index % 2 == 0 ? plan : single;
        const auto res = target.simulate(m, cfg);
        return PointResult{res.sim.aggregate_bandwidth,
                           res.sim.values_correct};
      });

  util::Table table({"payload (elems)", "ideal efficiency",
                     "multi-tree BW", "single-tree BW", "multi/single"});
  for (std::size_t i = 0; i < payloads.size(); ++i) {
    const auto& multi = results[i * 2];
    const auto& one = results[i * 2 + 1];
    if (!multi.correct || !one.correct) {
      std::fprintf(stderr, "correctness check failed\n");
      return 1;
    }
    table.add(payloads[i],
              static_cast<double>(payloads[i]) / (payloads[i] + 2),
              multi.bw, one.bw, multi.bw / one.bw);
  }
  table.print(std::cout);
  std::printf(
      "\nShape check: bandwidth tracks payload/(payload+header) for both\n"
      "schemes, so the ~q/2 multi-tree advantage is framing-invariant.\n");
  return 0;
}
