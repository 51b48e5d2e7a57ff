#include "collectives/bucket_schedule.hpp"

#include <numeric>
#include <stdexcept>

#include "collectives/resilient.hpp"
#include "util/contracts.hpp"

namespace pfar::collectives {

BucketScheduleResult run_bucketed_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees,
    const std::vector<long long>& bucket_sizes,
    const simnet::SimConfig& config, BucketStrategy strategy) {
  if (bucket_sizes.empty()) {
    throw std::invalid_argument("run_bucketed_allreduce: no buckets");
  }
  for (long long m : bucket_sizes) {
    if (m < 0) {
      throw std::invalid_argument("run_bucketed_allreduce: negative bucket");
    }
  }
  // Zero-length buckets cost nothing (TreeSetCost runs nothing for m = 0).
  TreeSetCost tree_set(topology, trees, config);
  BucketScheduleResult out;
  const auto run = [&](long long m) {
    const RunCost cost = tree_set.cost(m);
    out.total_cycles += cost.cycles;
    out.total_flits += cost.flits;
    out.correct = out.correct && cost.correct;
    out.bucket_finish.push_back(out.total_cycles);
  };
  if (strategy == BucketStrategy::kFused) {
    run(std::accumulate(bucket_sizes.begin(), bucket_sizes.end(), 0LL));
  } else {
    for (long long m : bucket_sizes) run(m);
  }
  PFAR_ENSURE(out.total_cycles >= 0 && out.total_flits >= 0,
              out.total_cycles, out.total_flits);
  return out;
}

}  // namespace pfar::collectives
