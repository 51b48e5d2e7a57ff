// Fixed reference kernel for host-time calibration. Its build options are
// pinned in perfbench/CMakeLists.txt, separately from the product's, and
// its work never changes: that is what makes it a yardstick. The benchmark
// times it right before and right after every measured unit, and samples
// it from a CPU-time timer while the unit runs, and divides the unit's CPU
// time by the kernel's, so slow phases of a shared host (frequency, cache
// and memory-bandwidth contention) cancel out.
//
// Shape: random read-modify-write over a 256 KiB table with data-dependent
// branches (like the simulator's per-link state updates and its
// arbitration and credit checks). The table size was chosen by how steady
// the ratio of a q=11 Allreduce to the kernel stayed across processes on
// a noisy shared host: 256 KiB kept it within 3.7% over 8 processes, 1 MiB
// within 4.5%, 4 MiB within 7.8%, while the raw unit moved 20%
// (README.md, "Calibration").

#include "calib_kernel.hpp"

#include <signal.h>
#include <sys/time.h>
#include <time.h>

#include <cstddef>
#include <cstdint>
#include <vector>

namespace pfar::perfbench {

std::uint64_t calib_kernel() {
  constexpr std::size_t kWords = std::size_t{1} << 16;  // 256 KiB of uint32
  constexpr int kSteps = 75'000;
  static std::uint32_t table[kWords];
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < kSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint32_t& slot = table[x & (kWords - 1)];
    std::uint32_t v = slot;
    if ((v & 3u) == 0u) {
      v = v * 2654435761u + static_cast<std::uint32_t>(i);
    } else if ((v & 1u) != 0u) {
      v = (v >> 1) ^ static_cast<std::uint32_t>(x >> 32);
    } else {
      v += 0x9e3779b9u;
    }
    slot = v;
    acc += v & 0xffu;
  }
  return acc;
}

namespace {

constexpr int kMaxSamples = 1 << 16;
KernelSample g_samples[kMaxSamples];
volatile sig_atomic_t g_count = 0;
volatile std::uint64_t g_sink = 0;

double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void on_sigprof(int) {
  if (g_count >= kMaxSamples) return;
  const double t0 = thread_cpu_s();
  g_sink = g_sink + calib_kernel();
  g_samples[g_count] = {t0, thread_cpu_s() - t0};
  g_count = g_count + 1;
}

void set_timer(int interval_us) {
  itimerval timer{};
  timer.it_interval.tv_usec = interval_us;
  timer.it_value.tv_usec = interval_us;
  setitimer(ITIMER_PROF, &timer, nullptr);
}

}  // namespace

void start_sampling(int interval_us) {
  static const bool installed = [] {
    struct sigaction action{};
    action.sa_handler = on_sigprof;
    action.sa_flags = SA_RESTART;
    sigemptyset(&action.sa_mask);
    return sigaction(SIGPROF, &action, nullptr) == 0;
  }();
  if (!installed) return;
  g_count = 0;
  set_timer(interval_us);
}

std::vector<KernelSample> stop_sampling() {
  set_timer(0);
  return std::vector<KernelSample>(g_samples, g_samples + g_count);
}

}  // namespace pfar::perfbench
