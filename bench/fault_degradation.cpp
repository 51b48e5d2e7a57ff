// Fault degradation curves for the resilient Allreduce (docs/resilience.md):
//
//  * static: aggregate bandwidth of the repacked plan as scripted link
//    failures accumulate (how gracefully Algorithm 1 capacity decays on the
//    residual topology), versus the keep-surviving policy;
//  * runtime: end-to-end cost of a mid-collective single-link failure —
//    detection latency, chunks replayed, recovery cycles, and the slowdown
//    relative to a healthy run — measured by run_resilient_allreduce on the
//    cycle-level simulator.
//
// The grid fans out across a core::SweepRunner (--threads N / PFAR_THREADS)
// and results land in BENCH_fault_degradation.json.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "bench_json.hpp"
#include "collectives/resilient.hpp"
#include "core/planner.hpp"
#include "core/resilience.hpp"
#include "core/sweep_runner.hpp"
#include "graph/graph.hpp"
#include "simnet/config.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

struct Point {
  int q;
  int failures;  // accumulated failed links (static curve), 1 for runtime
};

struct PointResult {
  // Static curve.
  double healthy_bw = 0.0;
  double repack_bw = 0.0;
  double keep_bw = 0.0;
  int repack_trees = 0;
  int keep_trees = 0;
  // Runtime recovery (failures == 1 only; zeros otherwise).
  long long healthy_cycles = 0;
  long long recovery_cycles = 0;
  long long detection_cycle = 0;
  long long chunks_replayed = 0;
  double slowdown = 0.0;
  double wall_ms = 0.0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// Deterministic scattered failure set, same stride the resilience tests use.
std::vector<pfar::graph::Edge> failure_set(const pfar::graph::Graph& g,
                                           int count) {
  std::vector<pfar::graph::Edge> failed;
  for (int i = 0; i < count; ++i) {
    const pfar::graph::Edge e = g.edge((i * 23 + 5) % g.num_edges());
    bool dup = false;
    for (const auto& f : failed) dup = dup || f == e;
    if (!dup) failed.push_back(e);
  }
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pfar;
  const util::Args args(argc, argv, {"m", "json", "threads", "engine"});
  const int threads = args.threads();
  const long long m = args.get_int("m", 1500);
  // Engine for the cycle-level runs. The flow tier rejects fault scripts,
  // so --engine flow fails the runtime-recovery points by design.
  const simnet::SimEngine engine = bench::engine_arg(args);

  std::printf("Fault degradation: static repack curve + runtime recovery "
              "(link B = 1)\n\n");

  std::vector<Point> grid;
  for (int q : {5, 7, 11}) {
    for (int failures : {1, 2, 4, 8}) grid.push_back({q, failures});
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  core::SweepRunner runner(threads);
  const auto results = runner.map<PointResult>(
      static_cast<int>(grid.size()), [&](const core::SweepTask& task) {
        const Point& p = grid[static_cast<std::size_t>(task.index)];
        const auto point_start = std::chrono::steady_clock::now();
        const auto plan = core::AllreducePlanner(p.q).build();
        const graph::Graph& g = plan.topology();

        PointResult out;
        out.healthy_bw = plan.aggregate_bandwidth();

        // Static degradation: both replan policies on the same failure set.
        const auto failed = failure_set(g, p.failures);
        const auto repack = core::degrade_repack(g, failed);
        out.repack_bw = repack.bandwidths.aggregate;
        out.repack_trees = static_cast<int>(repack.trees.size());
        try {
          const auto keep =
              core::degrade_keep_surviving(g, plan.trees(), failed);
          out.keep_bw = keep.bandwidths.aggregate;
          out.keep_trees = static_cast<int>(keep.trees.size());
        } catch (const std::runtime_error&) {
          // Every tree touched a failed link: keep-surviving has nothing
          // left (bandwidth 0); only repack survives this point.
        }

        // Runtime recovery cost of one mid-collective failure.
        if (p.failures == 1) {
          simnet::SimConfig healthy_cfg;
          healthy_cfg.engine = engine;
          out.healthy_cycles = plan.simulate(m, healthy_cfg).sim.cycles;
          simnet::SimConfig cfg;
          cfg.engine = engine;
          cfg.progress_timeout = 800;
          // Down an uplink tree 0 actually uses, mid-collective.
          const auto& parents = plan.trees()[0].parents();
          for (int v = 0; v < static_cast<int>(parents.size()); ++v) {
            const int pa = parents[static_cast<std::size_t>(v)];
            if (pa >= 0) {
              cfg.faults.events.push_back(
                  {200, v, pa, simnet::FaultType::kLinkDown});
              break;
            }
          }
          const auto stats =
              collectives::run_resilient_allreduce(g, plan.trees(), m, cfg);
          out.recovery_cycles = stats.total_cycles;
          out.detection_cycle = stats.detection_cycle;
          out.chunks_replayed = stats.chunks_replayed;
          out.slowdown = out.healthy_cycles > 0
                             ? static_cast<double>(stats.total_cycles) /
                                   static_cast<double>(out.healthy_cycles)
                             : 0.0;
        }
        out.wall_ms = ms_since(point_start);
        return out;
      });
  const double total_ms = ms_since(sweep_start);

  util::Table table({"q", "fails", "healthy BW", "repack BW", "keep BW",
                     "repack trees", "recovery cyc", "slowdown"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    table.add(grid[i].q, grid[i].failures, results[i].healthy_bw,
              results[i].repack_bw, results[i].keep_bw,
              results[i].repack_trees, results[i].recovery_cycles,
              results[i].slowdown);
  }
  table.print(std::cout);
  std::printf(
      "\nShape check: keep BW is non-increasing in the failure count and\n"
      "decays toward 0; greedy repack holds a positive floor within\n"
      "(0, healthy] throughout. Single-link recovery slowdown stays a small\n"
      "multiple of the healthy run (detection timeout + replay of lost\n"
      "chunks).\n");

  const std::string json_path =
      args.get_string("json", "BENCH_fault_degradation.json");
  if (FILE* json = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(json, "{\n");
    bench::write_meta(json, 1);
    std::fprintf(json, "  \"threads\": %d,\n  \"m\": %lld,\n", threads, m);
    std::fprintf(json, "  \"total_wall_ms\": %.1f,\n  \"points\": [\n",
                 total_ms);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      std::fprintf(
          json,
          "    {\"q\": %d, \"failures\": %d, \"healthy_bw\": %.4f, "
          "\"repack_bw\": %.4f, \"keep_bw\": %.4f, \"repack_trees\": %d, "
          "\"keep_trees\": %d, \"healthy_cycles\": %lld, "
          "\"recovery_cycles\": %lld, \"detection_cycle\": %lld, "
          "\"chunks_replayed\": %lld, \"slowdown\": %.4f, "
          "\"wall_ms\": %.1f}%s\n",
          grid[i].q, grid[i].failures, results[i].healthy_bw,
          results[i].repack_bw, results[i].keep_bw, results[i].repack_trees,
          results[i].keep_trees, results[i].healthy_cycles,
          results[i].recovery_cycles, results[i].detection_cycle,
          results[i].chunks_replayed, results[i].slowdown, results[i].wall_ms,
          i + 1 < grid.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::fprintf(stderr, "wrote %s (%zu points, %d threads, %.1f ms)\n",
                 json_path.c_str(), grid.size(), threads, total_ms);
  } else {
    std::fprintf(stderr, "warning: could not open %s for writing\n",
                 json_path.c_str());
  }
  return 0;
}
