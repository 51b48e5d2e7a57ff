#pragma once

#include <vector>

#include "collectives/innetwork.hpp"

namespace pfar::collectives {

/// Bucketed-gradient execution strategies. Deep-learning frameworks issue
/// gradients as a sequence of fused buckets; how the buckets map onto the
/// in-network trees changes the pipeline behaviour:
///  * kSerialized: one full Allreduce per bucket, back to back. Each
///    bucket pays the full pipeline fill/drain of the tree set.
///  * kFused: concatenate all buckets into one stream per tree — the
///    hardware pipeline never drains between buckets, so fills are paid
///    once. (Results become available only at the end; frameworks trade
///    this against reaction latency.)
enum class BucketStrategy {
  kSerialized,
  kFused,
};

struct BucketScheduleResult {
  long long total_cycles = 0;
  /// Every element of every bucket delivered with exact values. A run
  /// whose progress timeout canceled trees is incorrect: this schedule
  /// has no recovery (run_resilient_allreduce does).
  bool correct = true;
  /// Per-bucket completion cycle (cumulative). For kFused there is a
  /// single entry: everything lands together.
  std::vector<long long> bucket_finish;
  /// Flits moved across all directed links over all runs (payload +
  /// headers) — the fabric work the schedule cost.
  long long total_flits = 0;
};

/// Executes a sequence of gradient-bucket Allreduces over one tree set and
/// reports the end-to-end cycle count under the chosen strategy. Costs come
/// from one TreeSetCost, so equal bucket sizes simulate once, a size whose
/// split is whole steady periods away from an already simulated one is
/// shifted from it without simulating, and the runs are uninstrumented
/// (config.recorder is ignored).
///
/// Zero-length buckets are legal and free: they consume no fabric time or
/// flits (their finish cycle is wherever the schedule already stands), and
/// a bucket list that is entirely zero completes at cycle 0. The bucket
/// count is independent of the tree count — buckets are a time-axis
/// partition of the stream, not a tree-axis one, so more buckets than
/// trees is the common case for DL gradient schedules.
BucketScheduleResult run_bucketed_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees,
    const std::vector<long long>& bucket_sizes, const simnet::SimConfig& config,
    BucketStrategy strategy);

}  // namespace pfar::collectives
