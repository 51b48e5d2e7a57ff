#include "util/thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <system_error>
#include <utility>

#include "util/contracts.hpp"

namespace pfar::util {

int default_threads() {
  // getenv is not reentrant-safe in general, but this runs before any
  // pool exists and no product code calls setenv.
  if (const char* env = std::getenv("PFAR_THREADS")) {  // NOLINT(concurrency-mt-unsafe)
    const std::string text(env);
    const char* const end = text.data() + text.size();
    int parsed = 0;
    const auto [stop, ec] = std::from_chars(text.data(), end, parsed);
    if (ec != std::errc() || stop != end || parsed < 1) {
      throw std::invalid_argument(
          "PFAR_THREADS: expected a whole number >= 1, got '" + text + "'");
    }
    return parsed;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

void parallel_for(int threads, int count, const std::function<void(int)>& fn) {
  PFAR_REQUIRE(static_cast<bool>(fn), threads, count);
  if (count <= 0) return;
  if (threads <= 0) threads = default_threads();
  if (threads == 1 || count == 1) {
    for (int i = 0; i < count; ++i) fn(i);
    return;
  }
  FirstError error;
  {
    ThreadPool pool(std::min(threads, count));
    for (int i = 0; i < count; ++i) {
      pool.submit([i, &fn, &error] {
        try {
          fn(i);
        } catch (...) {
          error.capture();
        }
      });
    }
    pool.wait_idle();
  }
  error.rethrow_if_set();
}

ThreadPool::ThreadPool(int threads) {
  if (threads <= 0) threads = default_threads();
  workers_.reserve(static_cast<std::size_t>(threads));
  for (int i = 0; i < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    MutexLock lock(mutex_);
    stopping_ = true;
  }
  work_available_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::submit(std::function<void()> task) {
  PFAR_REQUIRE(static_cast<bool>(task), workers_.size());
  {
    MutexLock lock(mutex_);
    queue_.push(std::move(task));
    ++in_flight_;
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  MutexLock lock(mutex_);
  while (in_flight_ != 0) idle_.wait(mutex_);
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      MutexLock lock(mutex_);
      while (!stopping_ && queue_.empty()) work_available_.wait(mutex_);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop();
    }
    task();
    {
      MutexLock lock(mutex_);
      if (--in_flight_ == 0) idle_.notify_all();
    }
  }
}

}  // namespace pfar::util
