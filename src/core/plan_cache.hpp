#pragma once

#include <cstdint>
#include <map>
#include <memory>

#include "core/planner.hpp"
#include "util/thread_annotations.hpp"

namespace pfar::core {

/// Identity of a fully built plan: everything AllreducePlanner consumes.
struct PlanKey {
  int q = 0;
  Solution solution = Solution::kLowDepth;
  int starter = 0;

  friend bool operator==(const PlanKey&, const PlanKey&) = default;
  friend auto operator<=>(const PlanKey&, const PlanKey&) = default;
};

/// Memoizes fully built AllreducePlans (topology + trees + Algorithm 1
/// bandwidths) in memory. Design sweeps construct each (q, solution,
/// starter) point exactly once per cache.
///
/// Thread-safe: concurrent get_or_build calls for the same key build at
/// most once each (first insert wins; construction is deterministic, so a
/// lost race returns an identical plan).
class PlanCache {
 public:
  struct Stats {
    std::uint64_t memory_hits = 0;
    std::uint64_t misses = 0;  // full builds
  };

  /// Returns the cached plan for `key`, building it (with `threads`
  /// construction workers) on a miss. Never returns null.
  std::shared_ptr<const AllreducePlan> get_or_build(const PlanKey& key,
                                                    int threads = 0);

  Stats stats() const;

 private:
  mutable util::Mutex mu_;
  std::map<PlanKey, std::shared_ptr<const AllreducePlan>> memory_
      PFAR_GUARDED_BY(mu_);
  Stats stats_ PFAR_GUARDED_BY(mu_);
};

}  // namespace pfar::core
