#include "workload/replay.hpp"

#include <algorithm>
#include <numeric>
#include <string>
#include <utility>

#include "obsv/recorder.hpp"
#include "service/service.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace pfar::workload {
namespace {

/// One collective in flight: [start, finish) on some lane.
struct CommInterval {
  long long start = 0;
  long long finish = 0;
};

/// Union length of a set of (possibly overlapping, unsorted) intervals.
long long union_length(std::vector<CommInterval> intervals) {
  std::sort(intervals.begin(), intervals.end(),
            [](const CommInterval& a, const CommInterval& b) {
              return a.start != b.start ? a.start < b.start
                                        : a.finish < b.finish;
            });
  long long total = 0;
  long long cover_end = 0;
  bool open = false;
  for (const CommInterval& iv : intervals) {
    if (iv.finish <= iv.start) continue;  // zero-length: degenerate bucket
    if (!open || iv.start > cover_end) {
      total += iv.finish - iv.start;
      cover_end = iv.finish;
      open = true;
    } else if (iv.finish > cover_end) {
      total += iv.finish - cover_end;
      cover_end = iv.finish;
    }
  }
  PFAR_ENSURE(total >= 0, total);
  return total;
}

/// Folds one iteration's comm intervals into its IterationRecord and the
/// epoch totals.
void close_iteration(IterationRecord* iter, ReplayResult* out,
                     std::vector<CommInterval> intervals) {
  PFAR_REQUIRE(iter->compute_done >= iter->start, iter->start,
               iter->compute_done);
  iter->finish = std::max(iter->compute_done, iter->comm_done);
  iter->comm_wall_cycles = union_length(std::move(intervals));
  iter->exposed_comm_cycles =
      std::max(0LL, iter->comm_done - iter->compute_done);
  out->compute_cycles += iter->compute_done - iter->start;
  out->comm_wall_cycles += iter->comm_wall_cycles;
  out->comm_busy_cycles += iter->comm_busy_cycles;
  out->exposed_comm_cycles += iter->exposed_comm_cycles;
  out->iterations.push_back(*iter);
}

}  // namespace

std::vector<int> node_multipliers(const SkewSpec& skew, int num_nodes) {
  PFAR_REQUIRE(num_nodes >= 1, num_nodes);
  PFAR_REQUIRE(skew.skew_permille >= 0, skew.skew_permille);
  PFAR_REQUIRE(skew.straggler_permille >= 1000, skew.straggler_permille);
  PFAR_REQUIRE(skew.straggler_nodes >= 0 && skew.straggler_nodes <= num_nodes,
               skew.straggler_nodes, num_nodes);
  std::vector<int> mult(static_cast<std::size_t>(num_nodes), 1000);
  util::Rng jitter_rng(skew.seed);
  if (skew.skew_permille > 0) {
    for (int& m : mult) {
      m = 1000 + static_cast<int>(jitter_rng.next_below(
                     static_cast<std::uint64_t>(skew.skew_permille) + 1));
    }
  }
  if (skew.straggler_nodes > 0 && skew.straggler_permille > 1000) {
    // Distinct straggler picks from an independent stream so toggling the
    // jitter does not reshuffle which nodes straggle.
    util::Rng pick_rng(skew.seed ^ 0xdeadbeefcafef00dULL);
    std::vector<int> pool(static_cast<std::size_t>(num_nodes));
    std::iota(pool.begin(), pool.end(), 0);
    for (int i = 0; i < skew.straggler_nodes; ++i) {
      const std::size_t j =
          static_cast<std::size_t>(i) +
          static_cast<std::size_t>(pick_rng.next_below(
              static_cast<std::uint64_t>(num_nodes - i)));
      std::swap(pool[static_cast<std::size_t>(i)], pool[j]);
      const std::size_t node = static_cast<std::size_t>(
          pool[static_cast<std::size_t>(i)]);
      mult[node] = std::max(mult[node], skew.straggler_permille);
    }
  }
  PFAR_ENSURE(static_cast<int>(mult.size()) == num_nodes, mult.size());
  return mult;
}

ReplayResult replay_training(const core::AllreducePlan& plan,
                             const ReplayConfig& config) {
  PFAR_REQUIRE(!config.trace.layers.empty(), config.trace.layers.size());
  PFAR_REQUIRE(config.trace.iterations >= 1, config.trace.iterations);

  ReplayResult out;
  out.buckets = bucketize(config.trace, config.min_bucket_elements);

  const std::vector<int> mult =
      node_multipliers(config.skew, plan.num_nodes());
  const auto slow_it = std::max_element(mult.begin(), mult.end());
  out.slow_permille = *slow_it;
  out.slowest_node = static_cast<int>(slow_it - mult.begin());
  const auto scale = [&](long long cycles) {
    return cycles * out.slow_permille / 1000;
  };
  const long long compute_total = scale(config.trace.total_compute_cycles());

  obsv::Recorder* recorder = config.sim.recorder;
  if (recorder != nullptr) {
    recorder->trace.name_track(obsv::kTrackWorkload, "training replay");
    recorder->metrics.hwm("workload.buckets_per_iteration",
                          static_cast<long long>(out.buckets.size()));
    recorder->metrics.hwm("workload.slow_permille", out.slow_permille);
  }

  // One persistent service whose virtual clock IS the training timeline:
  // buckets become jobs with arrival = release cycle, and the mode picks
  // the lanes.
  service::ServiceConfig svc_config;
  svc_config.policy = config.mode == CommMode::kService
                          ? service::SchedulerPolicy::kPartitioned
                          : service::SchedulerPolicy::kSerial;
  svc_config.sim = config.sim;  // recorder = service lane spans
  // Every bucket of an iteration must be admissible at once.
  svc_config.max_queue_jobs =
      std::max(1024, static_cast<int>(out.buckets.size()) * 2);
  service::AllreduceService svc(plan, svc_config);

  long long clock = 0;  // global virtual time (BSP barriers)
  for (int k = 0; k < config.trace.iterations; ++k) {
    IterationRecord iter;
    iter.start = clock;
    iter.compute_done = clock + compute_total;

    std::vector<int> job_ids;
    job_ids.reserve(out.buckets.size());
    for (const Bucket& bucket : out.buckets) {
      service::JobSpec spec;
      spec.elements = bucket.elements;
      spec.arrival_cycle = config.overlap
                               ? iter.start + scale(bucket.ready_offset)
                               : iter.compute_done;
      job_ids.push_back(svc.submit(spec));
    }
    svc.drain();
    // Neither policy coalesces, so every job that touched the fabric is
    // its own batch: one interval each.
    std::vector<CommInterval> intervals;
    for (int id : job_ids) {
      const service::JobRecord& record =
          svc.records()[static_cast<std::size_t>(id)];
      PFAR_ENSURE(record.completed && !record.rejected &&
                      record.batch_jobs == 1,
                  id, record.batch_jobs);
      if (record.lane < 0) continue;  // degenerate: no fabric touched
      iter.comm_done = std::max(iter.comm_done, record.finish_cycle);
      intervals.push_back(CommInterval{record.start_cycle, record.finish_cycle});
      iter.comm_busy_cycles += record.finish_cycle - record.start_cycle;
    }

    iter.comm_done = std::max(iter.comm_done, iter.start);
    close_iteration(&iter, &out, std::move(intervals));
    clock = iter.finish;

    if (recorder != nullptr) {
      recorder->metrics.add("workload.iterations");
      recorder->metrics.add("workload.buckets",
                            static_cast<long long>(out.buckets.size()));
      recorder->metrics.add("workload.compute_cycles",
                            iter.compute_done - iter.start);
      recorder->metrics.add("workload.comm_wall_cycles",
                            iter.comm_wall_cycles);
      recorder->metrics.add("workload.exposed_comm_cycles",
                            iter.exposed_comm_cycles);
      recorder->trace.complete(
          iter.start, iter.compute_done - iter.start,
          recorder->trace.intern("iter " + std::to_string(k) + " compute"),
          obsv::kTrackWorkload, {"iteration", k},
          {"slow_permille", out.slow_permille});
      if (iter.comm_wall_cycles > 0) {
        recorder->trace.complete(
            iter.start, iter.comm_done - iter.start,
            recorder->trace.intern("iter " + std::to_string(k) + " comm"),
            obsv::kTrackWorkload,
            {"buckets", static_cast<long long>(out.buckets.size())},
            {"exposed", iter.exposed_comm_cycles});
      }
      recorder->trace.instant(
          iter.finish, recorder->trace.intern("barrier"),
          obsv::kTrackWorkload, {"iteration", k});
    }
  }

  const service::ServiceStats stats = svc.stats();
  out.total_flits = stats.total_flits;
  out.replayed_elements = stats.replayed_elements;
  out.values_correct = stats.values_correct;
  out.time_to_epoch = clock;
  out.overlap_efficiency =
      out.comm_wall_cycles > 0
          ? 1.0 - static_cast<double>(out.exposed_comm_cycles) /
                      static_cast<double>(out.comm_wall_cycles)
          : 1.0;
  if (recorder != nullptr) {
    recorder->metrics.hwm("workload.time_to_epoch", out.time_to_epoch);
  }
  PFAR_ENSURE(out.time_to_epoch >= compute_total * config.trace.iterations,
              out.time_to_epoch, compute_total);
  PFAR_ENSURE(out.exposed_comm_cycles <= out.comm_wall_cycles,
              out.exposed_comm_cycles, out.comm_wall_cycles);
  PFAR_ENSURE(out.overlap_efficiency >= 0.0 && out.overlap_efficiency <= 1.0,
              out.overlap_efficiency);
  return out;
}

}  // namespace pfar::workload
