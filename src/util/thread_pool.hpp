#pragma once

#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <queue>
#include <thread>
#include <vector>

#include "util/thread_annotations.hpp"

namespace pfar::util {

/// Number of worker threads to use by default: the PFAR_THREADS environment
/// variable if set, otherwise the hardware concurrency (at least 1). A set
/// PFAR_THREADS must be a whole decimal integer >= 1 (as Args::get_int
/// reads flags); anything else (`4x`, `abc`, `0`, `-2`, empty) throws
/// std::invalid_argument naming the variable.
int default_threads();

/// Runs fn(i) for every i in [0, count) across up to `threads` workers
/// (<= 0 means default_threads()). Runs inline in index order when one
/// worker suffices; otherwise fans out over a ThreadPool. The first
/// exception thrown by any task is rethrown after all tasks finish.
/// Callers needing determinism must make tasks independent and write
/// results by index (the parallel-construction contract of
/// docs/plan_pipeline.md).
void parallel_for(int threads, int count, const std::function<void(int)>& fn);

/// Funnels the first exception thrown across concurrently running tasks
/// into one slot, to rethrow on the submitting thread once the fan-out
/// joins. Later captures are dropped — with independent tasks any of the
/// failures is representative, and "first to lock" keeps the slot free of
/// ordering assumptions. Shared by parallel_for, core::SweepRunner and
/// anything else that fans work over a ThreadPool.
class FirstError {
 public:
  /// Records std::current_exception() if no earlier task got here first.
  /// Call from inside a catch block, on any thread.
  void capture() noexcept {
    MutexLock lock(mu_);
    if (!error_) error_ = std::current_exception();
  }

  /// Rethrows the captured exception, if any. Call after every task has
  /// finished (e.g. past ThreadPool::wait_idle), when no capture can race.
  void rethrow_if_set() {
    MutexLock lock(mu_);
    if (error_) std::rethrow_exception(error_);
  }

 private:
  Mutex mu_;
  std::exception_ptr error_ PFAR_GUARDED_BY(mu_);
};

/// A fixed-size pool of worker threads draining one shared task queue.
/// Tasks are opaque void() callables; ordering across workers is
/// unspecified, so deterministic users (see core::SweepRunner) must make
/// each task independent and collect results by index, not by completion
/// order.
class ThreadPool {
 public:
  /// Spawns `threads` workers (default_threads() when <= 0).
  explicit ThreadPool(int threads = 0);

  /// Drains the queue, then joins all workers.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task. Safe to call from any thread, including from inside
  /// a running task.
  void submit(std::function<void()> task);

  /// Blocks until the queue is empty and every submitted task has
  /// finished executing.
  void wait_idle();

  int num_threads() const { return static_cast<int>(workers_.size()); }

 private:
  void worker_loop();

  std::vector<std::thread> workers_;
  Mutex mutex_;
  // condition_variable_any waits on the annotated Mutex directly; the
  // plain std::condition_variable would force a bare std::mutex the
  // thread-safety analysis cannot track.
  std::condition_variable_any work_available_;
  std::condition_variable_any idle_;
  std::queue<std::function<void()>> queue_ PFAR_GUARDED_BY(mutex_);
  std::size_t in_flight_ PFAR_GUARDED_BY(mutex_) = 0;  // queued + executing
  bool stopping_ PFAR_GUARDED_BY(mutex_) = false;
};

}  // namespace pfar::util
