#include "service/batching.hpp"

#include <algorithm>

#include "util/contracts.hpp"

namespace pfar::service {

std::vector<std::size_t> collect_batch(const std::vector<QueuedJob>& queue,
                                       std::size_t seed,
                                       const ServiceConfig& config) {
  PFAR_REQUIRE(seed < queue.size());
  std::vector<std::size_t> batch{seed};
  if (config.policy != SchedulerPolicy::kPartitionedBatched) return batch;

  const QueuedJob& lead = queue[seed];
  long long elements = lead.elements;
  // Scan companions in deterministic queue-arrival order, not queue
  // position (positions shuffle as jobs dispatch; (queued_cycle, seq)
  // never does).
  std::vector<std::size_t> order(queue.size());
  for (std::size_t i = 0; i < queue.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return queue[a].queued_cycle != queue[b].queued_cycle
               ? queue[a].queued_cycle < queue[b].queued_cycle
               : queue[a].seq < queue[b].seq;
  });
  for (std::size_t i : order) {
    if (static_cast<int>(batch.size()) >= config.batch_max_jobs) break;
    if (i == seed) continue;
    const QueuedJob& job = queue[i];
    if (job.op != lead.op) continue;
    if (elements + job.elements > kBatchMaxElements) continue;
    elements += job.elements;
    batch.push_back(i);
  }
  return batch;
}

}  // namespace pfar::service
