#pragma once

#include <cstddef>
#include <vector>

#include "service/job.hpp"
#include "service/scheduler.hpp"

namespace pfar::service {

/// Most elements one fused batch may hold.
inline constexpr long long kBatchMaxElements = 1'000'000;

/// Coalescer (docs/service_layer.md, "Batching semantics"): starting from
/// the fairness-chosen seed job, collects queued jobs that may share one
/// fused sub-vector run — those with the seed's operator — in
/// (queued_cycle, seq) order, until ServiceConfig::batch_max_jobs or
/// kBatchMaxElements would be exceeded. Returns indices into `queue`,
/// seed first. The seed alone is returned when the policy does not batch.
/// All jobs of a batch finish together at the fused run's completion
/// (BucketStrategy::kFused reaction-latency trade, stated in
/// collectives/bucket_schedule.hpp).
std::vector<std::size_t> collect_batch(const std::vector<QueuedJob>& queue,
                                       std::size_t seed,
                                       const ServiceConfig& config);

}  // namespace pfar::service
