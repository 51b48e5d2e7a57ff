// Measurement plumbing of the end-to-end benchmark: thread CPU clock,
// reference-kernel calibration, in-memory spans and the result line.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "calib_kernel.hpp"

namespace pfar::perfbench {

/// CPU seconds consumed by the calling thread. Host time in this benchmark
/// is always CPU time of its single thread, never wall time.
inline double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double wall_now() {
  timespec ts{};
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile (the same rule ServiceStats uses).
inline long long percentile(std::vector<long long> v, int pct) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(static_cast<double>(pct) / 100.0 * static_cast<double>(v.size())));
  return v[std::max<std::size_t>(rank, 1) - 1];
}

/// Nominal duration of one reference-kernel invocation; it only sets the
/// scale of calibrated time (the kernel's typical time on the host the
/// benchmark was tuned on, a 4-vCPU x86-64 VM with GCC 12; README.md).
inline constexpr double kKernelNominalS = 0.0007;

/// How strongly the program's CPU time follows the kernel's when the host
/// speeds up or slows down: calibrated = raw * (nominal / kernel)^1.4.
/// Chosen by steadiness on the tuning host (README.md, "Calibration"):
/// q=11 simulator units tracked kernel^1.5..1.7 over minutes-long swings,
/// training and plan_scale runs tracked kernel^1.25..1.45 across host
/// phases; 1.4 keeps every workload within its bound in both.
inline constexpr double kSpeedExponent = 1.4;

/// CPU-time interval between kernel samples taken during a unit.
inline constexpr int kSampleIntervalUs = 20'000;

/// Runs the reference kernel around and during measured units and turns a
/// unit's CPU time into calibrated time. The unit is cut at the kernel
/// samples taken during it; each slice of its own CPU time is scaled by
/// the host speed the kernel showed at the slice's end, (nominal /
/// kernel)^kSpeedExponent, so a host that changes speed within a long
/// unit is followed slice by slice. The kernel runs just before and just
/// after the unit (shared with the neighbouring units) close the first and
/// last slice.
class Calibrator {
 public:
  struct Sample {
    double raw_s = 0.0;         // unit CPU time, samples subtracted
    double kernel_s = 0.0;      // mean kernel time around and during it
    double factor = 1.0;        // calibrated_s / raw_s
    double calibrated_s = 0.0;
    double useful_share = 1.0;  // raw_s / CPU time including samples
  };

  Calibrator() { last_ = bracket(); }

  /// Runs `fn` as one unit.
  template <class F>
  Sample unit(F&& fn) {
    const double before = last_;
    start_sampling(kSampleIntervalUs);
    const double t0 = cpu_now();
    fn();
    const double t1 = cpu_now();
    const std::vector<KernelSample> during = stop_sampling();
    last_ = bracket();
    double raw = 0.0, calibrated = 0.0, kernel_sum = before + last_;
    double slice_start = t0;
    for (const KernelSample& s : during) {
      const double slice = std::max(0.0, s.start_s - slice_start);
      raw += slice;
      calibrated += slice * speed_factor(s.seconds);
      slice_start = s.start_s + s.seconds;
      kernel_sum += s.seconds;
      samples_.push_back(s.seconds);
    }
    const double tail = std::max(0.0, t1 - slice_start);
    raw += tail;
    calibrated += tail * speed_factor(during.empty() ? 0.5 * (before + last_)
                                                     : last_);
    Sample out;
    out.raw_s = raw;
    out.kernel_s = kernel_sum / static_cast<double>(during.size() + 2);
    out.calibrated_s = calibrated;
    out.factor = raw > 0 ? calibrated / raw : speed_factor(out.kernel_s);
    out.useful_share = t1 > t0 ? raw / (t1 - t0) : 1.0;
    return out;
  }

  /// Every kernel timing taken so far (for the calib.kernel_ms diagnostic).
  const std::vector<double>& kernel_samples() const { return samples_; }

 private:
  static double speed_factor(double kernel_s) {
    return std::pow(kKernelNominalS / kernel_s, kSpeedExponent);
  }

  /// Mean of a few kernel runs back to back.
  double bracket() {
    constexpr int kRuns = 8;
    double sum = 0.0;
    for (int i = 0; i < kRuns; ++i) {
      const double t0 = cpu_now();
      sink_ += calib_kernel();
      const double dt = cpu_now() - t0;
      samples_.push_back(dt);
      sum += dt;
    }
    return sum / kRuns;
  }

  double last_ = 0.0;
  std::vector<double> samples_;
  unsigned long long sink_ = 0;
};

/// Benchmark-side spans around calls into the program's layers: name,
/// start and end in thread CPU seconds, and the enclosing span. Kept in
/// memory; written out when the benchmark ends. Disabled logs record
/// nothing, so untraced runs pay one branch per call site.
class SpanLog {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
  };

  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Runs `fn` inside a span named `name` and returns fn's result. The
  /// duration is also appended to `*seconds` when given.
  template <class F>
  decltype(auto) span(const char* name, F&& fn, double* seconds = nullptr) {
    if (!enabled_) return fn();
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, cpu_now(), 0.0, open_});
    const int saved = open_;
    open_ = id;
    struct Closer {
      SpanLog* log;
      int id;
      int saved;
      double* seconds;
      ~Closer() {
        Span& s = log->spans_[static_cast<std::size_t>(id)];
        s.end = cpu_now();
        log->open_ = saved;
        if (seconds != nullptr) *seconds += s.end - s.start;
      }
    } closer{this, id, saved, seconds};
    return fn();
  }

  const std::vector<Span>& spans() const { return spans_; }

  void write_json(std::FILE* out) const {
    std::fprintf(out, "[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n {\"id\": %zu, \"name\": \"%s\", \"start_s\": %.9f, "
                   "\"end_s\": %.9f, \"parent\": %d}",
                   i == 0 ? "" : ",", i, s.name.c_str(), s.start, s.end,
                   s.parent);
    }
    std::fprintf(out, "\n]");
  }

 private:
  bool enabled_;
  int open_ = -1;
  std::vector<Span> spans_;
};

/// One named metric of the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Prints the result object on one line of stdout (the benchmark's last).
inline void print_result(bool correct, long long attempted, long long failed,
                         const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : -1.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), v,
                metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

}  // namespace pfar::perfbench
