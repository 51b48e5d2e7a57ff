#pragma once

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace pfar::obsv {

/// Registry of named metrics with a deterministic JSONL snapshot export.
///
/// Three kinds, chosen by the first touch of a name (mixing kinds on one
/// name throws):
///  * counter   - monotonically accumulated int64 (`add`);
///  * gauge     - int64 high-water mark (`hwm`), e.g. queue depths;
///  * histogram - double summary (count/sum/min/max) via `observe`, used
///                for wall-clock phase timers and other real-valued samples.
///
/// `write_jsonl` emits one JSON object per line, sorted by metric name, so
/// a snapshot of purely simulation-derived metrics is byte-stable across
/// runs (histograms fed from wall clocks are deterministic in shape, not in
/// value). Like Tracer, a Metrics instance is single-writer.
class Metrics {
 public:
  void add(std::string_view name, long long delta = 1);
  void hwm(std::string_view name, long long value);
  void observe(std::string_view name, double value);

  /// Introspection (0 / empty-histogram defaults when absent).
  long long counter(std::string_view name) const;
  long long gauge(std::string_view name) const;
  long long histogram_count(std::string_view name) const;
  bool contains(std::string_view name) const;
  std::size_t size() const { return entries_.size(); }

  /// Names of every registered metric starting with `prefix` (all names
  /// when empty), in sorted order — the registry's iteration order, so the
  /// result is deterministic.
  std::vector<std::string> names(std::string_view prefix = "") const;

  /// One `{"name":...,"type":"counter|gauge|histogram",...}` object per
  /// line, sorted by name.
  void write_jsonl(std::ostream& os) const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram };
  struct Entry {
    Kind kind = Kind::kCounter;
    long long value = 0;     // counter sum / gauge high-water
    long long count = 0;     // histogram samples
    double sum = 0.0;
    double min = 0.0;
    double max = 0.0;
  };

  Entry& touch(std::string_view name, Kind kind);
  const Entry* find(std::string_view name, Kind kind) const;

  std::map<std::string, Entry, std::less<>> entries_;
};

/// Nearest-rank percentile: the ceil(pct/100 * n)-th smallest sample
/// (1-based; pct 0 gives the minimum). Always one of the samples, so
/// integer samples such as virtual cycles give exact, bit-stable
/// quantiles. Requires a non-empty sample set and 0 <= pct <= 100.
long long nearest_rank(std::vector<long long> samples, int pct);

/// RAII wall-clock phase timer: records elapsed milliseconds into a
/// histogram metric on destruction. Null-safe: a null registry makes the
/// timer (and the instrumented scope) free.
class ScopedTimerMs {
 public:
  ScopedTimerMs(Metrics* metrics, std::string_view name)
      : metrics_(metrics),
        name_(name),
        start_(metrics ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{}) {}
  ~ScopedTimerMs() {
    if (metrics_ == nullptr) return;
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - start_)
                          .count();
    metrics_->observe(name_, ms);
  }
  ScopedTimerMs(const ScopedTimerMs&) = delete;
  ScopedTimerMs& operator=(const ScopedTimerMs&) = delete;

 private:
  Metrics* metrics_;
  std::string name_;
  std::chrono::steady_clock::time_point start_;
};

}  // namespace pfar::obsv
