#include "service/scheduler.hpp"

#include "simnet/allreduce_sim.hpp"
#include "util/contracts.hpp"

namespace pfar::service {

std::vector<Lane> build_lanes(const graph::Graph& topology,
                              const std::vector<trees::SpanningTree>& trees,
                              SchedulerPolicy policy) {
  PFAR_REQUIRE(!trees.empty());
  std::vector<Lane> lanes;
  if (policy == SchedulerPolicy::kSerial) {
    Lane all;
    for (int t = 0; t < static_cast<int>(trees.size()); ++t) {
      all.tree_ids.push_back(t);
    }
    lanes.push_back(std::move(all));
    return lanes;
  }
  const auto groups = simnet::link_disjoint_tree_groups(topology, trees);
  lanes.reserve(groups.size());
  for (const auto& group : groups) {
    lanes.push_back(Lane{group});
  }
  // Every tree lands in exactly one lane (the partition property the
  // exact-concurrency argument rests on).
  std::size_t covered = 0;
  for (const auto& lane : lanes) covered += lane.tree_ids.size();
  PFAR_ENSURE(covered == trees.size(), covered, trees.size());
  return lanes;
}

std::size_t pick_seed(const std::vector<QueuedJob>& queue,
                      const std::map<int, long long>& served_elements) {
  PFAR_REQUIRE(!queue.empty());
  const auto served = [&](int tenant) {
    const auto it = served_elements.find(tenant);
    return it == served_elements.end() ? 0LL : it->second;
  };
  std::size_t best = 0;
  for (std::size_t i = 1; i < queue.size(); ++i) {
    const QueuedJob& a = queue[i];
    const QueuedJob& b = queue[best];
    // Tenant choice: least served, then smaller tenant id.
    if (a.tenant != b.tenant) {
      const long long sa = served(a.tenant);
      const long long sb = served(b.tenant);
      if (sa != sb ? sa < sb : a.tenant < b.tenant) best = i;
      continue;
    }
    // Within the tenant: priority, then earliest (queued_cycle, seq).
    if (a.priority != b.priority) {
      if (a.priority > b.priority) best = i;
      continue;
    }
    if (a.queued_cycle != b.queued_cycle
            ? a.queued_cycle < b.queued_cycle
            : a.seq < b.seq) {
      best = i;
    }
  }
  return best;
}

}  // namespace pfar::service
