#include "core/plan_cache.hpp"

#include <utility>

#include "util/contracts.hpp"

namespace pfar::core {

std::shared_ptr<const AllreducePlan> PlanCache::get_or_build(
    const PlanKey& key, int threads) {
  PFAR_REQUIRE(key.q >= 2 && threads >= 0, key.q, threads);
  {
    util::MutexLock lock(mu_);
    auto it = memory_.find(key);
    if (it != memory_.end()) {
      ++stats_.memory_hits;
      return it->second;
    }
  }

  // Build outside the lock: construction is deterministic, so a racing
  // duplicate build yields an identical plan and the first insert wins.
  auto built = std::make_shared<const AllreducePlan>(
      AllreducePlanner(key.q)
          .solution(key.solution)
          .starter_quadric(key.starter)
          .threads(threads)
          .build());
  util::MutexLock lock(mu_);
  auto [it, inserted] = memory_.emplace(key, std::move(built));
  if (inserted) ++stats_.misses;
  else ++stats_.memory_hits;
  return it->second;
}

// pfar-lint: allow(contract-coverage) lock-protected copy-out accessor; takes no inputs
PlanCache::Stats PlanCache::stats() const {
  util::MutexLock lock(mu_);
  return stats_;
}

}  // namespace pfar::core
