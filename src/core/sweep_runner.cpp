#include "core/sweep_runner.hpp"

#include <algorithm>

#include "util/contracts.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace pfar::core {

SweepRunner::SweepRunner(int threads, std::uint64_t base_seed)
    : threads_(threads <= 0 ? util::default_threads() : threads),
      base_seed_(base_seed) {}

// pfar-lint: allow(contract-coverage) splitmix64 is total; every (seed, index) pair is a valid input
std::uint64_t SweepRunner::task_seed(std::uint64_t base_seed, int index) {
  // splitmix64 of the index'th point after the base seed.
  return util::splitmix64(base_seed + std::uint64_t{0x9e3779b97f4a7c15ULL} *
                                          static_cast<std::uint64_t>(index));
}

void SweepRunner::for_each(int count,
                           const std::function<void(const SweepTask&)>& fn) {
  PFAR_REQUIRE(static_cast<bool>(fn), count, threads_);
  if (count <= 0) return;
  if (threads_ == 1 || count == 1) {
    for (int i = 0; i < count; ++i) {
      fn(SweepTask{i, task_seed(base_seed_, i)});
    }
    return;
  }
  util::FirstError error;
  {
    util::ThreadPool pool(std::min(threads_, count));
    for (int i = 0; i < count; ++i) {
      pool.submit([this, i, &fn, &error] {
        try {
          fn(SweepTask{i, task_seed(base_seed_, i)});
        } catch (...) {
          error.capture();
        }
      });
    }
    pool.wait_idle();
  }
  error.rethrow_if_set();
}

}  // namespace pfar::core
