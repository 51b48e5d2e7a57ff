// Multi-tenant service throughput (docs/service_layer.md): replay one
// seeded open-loop arrival stream of heterogeneous small-message-heavy
// allreduce jobs through the three scheduler policies — serial (one job at
// a time on the full tree set), partitioned (one lane per link-disjoint
// tree group), and partitioned+batched (same lanes plus same-(group, op)
// coalescing into fused runs) — across a grid of offered loads.
//
// Per point: jobs per kilocycle, p50/p99 completion latency, fabric
// utilization up to the makespan, and the admission drop count. All of it
// is integer virtual-cycle arithmetic over deterministic simulator results,
// so every field except wall_ms is bit-identical run to run and across
// --threads / PFAR_THREADS values; BENCH_service_throughput.json is gated
// exactly by tools/check_bench_regression.py.
//
// Offered load is calibrated in units of the serial service rate: load 1.0
// spaces arrivals (on average) one serial small-job service time apart, so
// load 2.0 oversubscribes the serial policy by design and the headroom the
// lanes add shows up directly as throughput instead of queueing.
//
// Observability (PFAR_TRACE=on builds): --trace/--metrics/--report PATH
// re-run the batched policy at the highest load with a Recorder attached —
// the trace shows per-lane batch spans on the service virtual timeline
// (tracks 200000+), rendered by tools/pfar_report.

#include <chrono>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_json.hpp"
#include "collectives/bucket_schedule.hpp"
#include "core/planner.hpp"
#include "core/sweep_runner.hpp"
#include "obsv/recorder.hpp"
#include "service/service.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace {

using namespace pfar;

struct Point {
  service::SchedulerPolicy policy;
  double load;
  long long mean_gap;
};

struct PointResult {
  service::ServiceStats stats;
  double wall_ms = 0.0;
};

double ms_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

/// Seeded open-loop arrival stream: ~4 tenants, small-message-heavy mix
/// (85% m in [64, 512], 13% in [1024, 4096], 2% m = 8192 — small by count
/// AND by volume, the regime where per-job pipeline fill dominates
/// streaming and scheduling policy matters; aggregate streaming bandwidth
/// is partition-invariant, so an element-heavy mix would flatten every
/// policy to the same number), mostly kSum with an eighth kMax (operator
/// diversity limits coalescing, as real mixed tenants would), priorities
/// 0-2, uniform inter-arrival gaps with the requested mean. Integer-only:
/// the same seed yields the same stream on every platform.
std::vector<service::JobSpec> make_workload(int jobs, int tenants,
                                            long long mean_gap,
                                            std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<service::JobSpec> out;
  out.reserve(static_cast<std::size_t>(jobs));
  long long t = 0;
  for (int i = 0; i < jobs; ++i) {
    t += 1 + static_cast<long long>(
                 rng.next_below(static_cast<std::uint64_t>(2 * mean_gap)));
    service::JobSpec spec;
    spec.tenant = static_cast<int>(rng.next_below(
        static_cast<std::uint64_t>(tenants)));
    const std::uint64_t bucket = rng.next_below(100);
    if (bucket < 85) {
      spec.elements = 64 + static_cast<long long>(rng.next_below(449));
    } else if (bucket < 98) {
      spec.elements = 1024 + static_cast<long long>(rng.next_below(3073));
    } else {
      spec.elements = 8192;
    }
    spec.op = rng.next_below(8) == 0 ? service::ReduceOp::kMax
                                     : service::ReduceOp::kSum;
    spec.priority = static_cast<int>(rng.next_below(3));
    spec.arrival_cycle = t;
    out.push_back(spec);
  }
  return out;
}

service::ServiceStats run_point(const core::AllreducePlan& plan,
                                const service::ServiceConfig& config,
                                const std::vector<service::JobSpec>& jobs) {
  service::AllreduceService svc(plan, config);
  for (const auto& spec : jobs) svc.submit(spec);
  svc.drain();
  return svc.stats();
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv,
      {"q", "jobs", "tenants", "seed", "batch-max-jobs", "max-queue", "json",
       "threads", "engine", "trace", "metrics", "report"});
  const int threads = args.threads();
  const int q = static_cast<int>(args.get_int("q", 11));
  const int jobs = static_cast<int>(args.get_int("jobs", 400));
  const int tenants = static_cast<int>(args.get_int("tenants", 4));
  const std::uint64_t seed =
      static_cast<std::uint64_t>(args.get_int("seed", 42));
  const auto solution = core::Solution::kEdgeDisjoint;

  service::ServiceConfig base_config;
  base_config.sim.engine = bench::engine_arg(args);
  base_config.max_queue_jobs =
      static_cast<int>(args.get_int("max-queue", 64));
  base_config.batch_max_jobs =
      static_cast<int>(args.get_int("batch-max-jobs", 16));

  const auto plan = core::AllreducePlanner(q).solution(solution).build();

  // Calibrate the load axis: one serial service time of the mix's mean job
  // size (~768 elements) on the full tree set. Deterministic — it is
  // itself a simulator result.
  const auto calib = collectives::run_bucketed_allreduce(
      plan.topology(), plan.trees(), {768}, base_config.sim,
      collectives::BucketStrategy::kFused);
  const long long serial_cost = calib.total_cycles;

  std::printf(
      "Multi-tenant allreduce service throughput (q = %d, %s, %d trees, "
      "engine = %s)\n%d jobs, %d tenants, seed %llu; load 1.0 = one "
      "arrival per %lld cycles (serial mean-job service time)\n\n",
      q, core::to_string(solution).c_str(), plan.num_trees(),
      simnet::to_string(base_config.sim.engine), jobs, tenants,
      static_cast<unsigned long long>(seed), serial_cost);

  // 4.0 deliberately oversubscribes even the partitioned capacity: with
  // every policy workload-bound, throughput ratios become pure capacity
  // ratios (and admission control finally has something to reject).
  const std::vector<double> loads{0.5, 1.0, 2.0, 4.0};
  const std::vector<service::SchedulerPolicy> policies{
      service::SchedulerPolicy::kSerial,
      service::SchedulerPolicy::kPartitioned,
      service::SchedulerPolicy::kPartitionedBatched};

  std::vector<Point> grid;
  std::vector<std::vector<service::JobSpec>> workloads;
  for (std::size_t li = 0; li < loads.size(); ++li) {
    const long long mean_gap = std::max<long long>(
        1, static_cast<long long>(static_cast<double>(serial_cost) /
                                  loads[li]));
    workloads.push_back(
        make_workload(jobs, tenants, mean_gap, seed + 1000003 * li));
    for (const auto policy : policies) {
      grid.push_back({policy, loads[li], mean_gap});
    }
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  core::SweepRunner runner(threads);
  const auto results = runner.map<PointResult>(
      static_cast<int>(grid.size()), [&](const core::SweepTask& task) {
        const Point& p = grid[static_cast<std::size_t>(task.index)];
        const auto point_start = std::chrono::steady_clock::now();
        service::ServiceConfig config = base_config;
        config.policy = p.policy;
        PointResult out;
        out.stats = run_point(
            plan, config,
            workloads[static_cast<std::size_t>(task.index) /
                      policies.size()]);
        out.wall_ms = ms_since(point_start);
        return out;
      });
  const double total_ms = ms_since(sweep_start);

  util::Table table({"load", "policy", "jobs/kcycle", "p50", "p99",
                     "util", "done", "rej", "batches"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const auto& s = results[i].stats;
    table.add(grid[i].load, service::to_string(grid[i].policy),
              s.jobs_per_kcycle, s.p50_cycles, s.p99_cycles, s.utilization,
              s.completed, s.rejected, s.batches);
  }
  table.print(std::cout);

  // Headline: the tentpole acceptance ratio at the highest offered load.
  const auto& serial_top = results[grid.size() - 3].stats;
  const auto& batched_top = results[grid.size() - 1].stats;
  const double speedup = serial_top.jobs_per_kcycle > 0
                             ? batched_top.jobs_per_kcycle /
                                   serial_top.jobs_per_kcycle
                             : 0.0;
  std::printf(
      "\nAt load %.1f: partitioned+batched sustains %.2fx the serial "
      "throughput\n(%.3f vs %.3f jobs/kcycle across %d lanes).\n",
      loads.back(), speedup, batched_top.jobs_per_kcycle,
      serial_top.jobs_per_kcycle, static_cast<int>(
          plan.link_disjoint_tree_groups().size()));

  bool all_correct = true;
  for (const auto& r : results) all_correct &= r.stats.values_correct;
  if (!all_correct) {
    std::fprintf(stderr, "ERROR: a simulated run reduced incorrectly\n");
    return 1;
  }

  const std::string json_path =
      args.get_string("json", "BENCH_service_throughput.json");
  if (FILE* json = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(json, "{\n");
    bench::write_meta(json, 1);
    std::fprintf(json,
                 "  \"threads\": %d,\n  \"total_wall_ms\": %.1f,\n"
                 "  \"serial_cost_cycles\": %lld,\n  \"points\": [\n",
                 threads, total_ms, serial_cost);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const auto& s = results[i].stats;
      std::fprintf(
          json,
          "    {\"engine\": \"%s\", \"q\": %d, \"policy\": \"%s\", "
          "\"load\": %.2f, \"jobs\": %d, "
          "\"jobs_per_kcycle\": %.4f, \"p50_cycles\": %lld, "
          "\"p99_cycles\": %lld, \"makespan_cycles\": %lld, "
          "\"utilization\": %.4f, \"completed\": %d, \"rejected\": %d, "
          "\"batches\": %d, \"coalesced_jobs\": %d, \"correct\": %s, "
          "\"wall_ms\": %.1f}%s\n",
          simnet::to_string(base_config.sim.engine), q,
          service::to_string(grid[i].policy), grid[i].load, jobs,
          s.jobs_per_kcycle, s.p50_cycles, s.p99_cycles, s.makespan_cycles,
          s.utilization, s.completed, s.rejected, s.batches,
          s.coalesced_jobs, s.values_correct ? "true" : "false",
          results[i].wall_ms, i + 1 < grid.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::fprintf(stderr, "wrote %s (%zu points, %d threads, %.1f ms)\n",
                 json_path.c_str(), grid.size(), threads, total_ms);
  } else {
    std::fprintf(stderr, "warning: could not open %s for writing\n",
                 json_path.c_str());
  }

  // Observability artifacts: re-run the batched policy at the highest load
  // with the service recorder attached (per-lane batch spans, queue-depth
  // gauge, job counters on the service virtual timeline).
  if (bench::wants_artifacts(args)) {
    obsv::Recorder recorder(1u << 20);
    service::ServiceConfig config = base_config;
    config.policy = service::SchedulerPolicy::kPartitionedBatched;
    config.sim.recorder = &recorder;
    run_point(plan, config, workloads.back());
    char what[48];
    std::snprintf(what, sizeof what, "batched at load %.1f", loads.back());
    bench::write_artifacts(args, recorder, what);
  }
  return 0;
}
