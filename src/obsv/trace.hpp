#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

/// Observability is always compiled in. Each hook threaded through the
/// simulator, the collectives, the planner, the controller, the service
/// and the replay costs one null-pointer test until a Recorder is attached
/// to the run (SimConfig::recorder / AllreducePlanner::observer). There is
/// one build: traced and untraced runs execute the same compiled code.

namespace pfar::obsv {

/// Always true. It stays only because the frozen benchmark driver
/// (perfbench/main.cpp) prints it in its build metadata; the next change
/// to the benchmark deletes it.
inline constexpr bool kTraceCompiled = true;

/// Track (Chrome "tid") layout of the traces this repo emits. Perfetto
/// renders one horizontal track per tid; the constants keep the layout
/// stable so pfar_report can classify events without string matching.
inline constexpr std::uint32_t kTrackSim = 0;       // run-wide instants
inline constexpr std::uint32_t kTrackRecovery = 1;  // resilient driver
inline constexpr std::uint32_t kTrackPlanner = 2;   // planner phases
inline constexpr std::uint32_t kTrackAdapt = 3;     // congestion controller
inline constexpr std::uint32_t kTrackWorkload = 4;  // training replay
inline constexpr std::uint32_t kTrackTreeBase = 10;       // + tree id
inline constexpr std::uint32_t kTrackLinkBase = 100000;   // + directed link
inline constexpr std::uint32_t kTrackServiceBase = 200000;  // + service lane

/// One named integer argument attached to a trace event.
struct TraceArg {
  const char* key = nullptr;
  long long value = 0;
};

/// Bounded-memory event tracer emitting Chrome trace_event JSON.
///
/// Design constraints (see docs/observability.md):
///  * deterministic: timestamps are virtual simulation cycles, never wall
///    clock, and export order is insertion order — two runs of the same
///    deterministic simulation serialize byte-identical traces;
///  * bounded: events land in a fixed-capacity buffer; once full, new
///    events are counted in dropped() and discarded (the timeline prefix
///    stays coherent, which Perfetto handles better than a hole at the
///    start);
///  * cheap: event names are interned once and events are 64-byte PODs, so
///    recording is an id lookup plus a vector append.
///
/// A Tracer is single-writer: one simulation run (itself single-threaded)
/// owns it for the duration of the run. Concurrent sweeps must use one
/// Recorder per task or none.
class Tracer {
 public:
  explicit Tracer(std::size_t capacity = 1u << 16);

  /// Interns `s`, returning a stable id. Id 0 is reserved (empty name).
  std::uint32_t intern(std::string_view s);

  /// Added to every subsequently recorded timestamp. The resilient driver
  /// uses this to place each retry attempt's (0-based) simulation on the
  /// global recovery timeline.
  void set_time_offset(long long offset) { time_offset_ = offset; }
  long long time_offset() const { return time_offset_; }

  /// Complete event ("ph":"X"): a span [ts, ts + dur) on `track`.
  void complete(long long ts, long long dur, std::uint32_t name,
                std::uint32_t track, TraceArg a = {}, TraceArg b = {});
  /// Instant event ("ph":"i").
  void instant(long long ts, std::uint32_t name, std::uint32_t track,
               TraceArg a = {}, TraceArg b = {});

  /// Names a track; exported as "thread_name" metadata, sorted by track id.
  void name_track(std::uint32_t track, std::string_view name);

  std::size_t size() const { return events_.size(); }
  std::size_t capacity() const { return capacity_; }
  std::size_t dropped() const { return dropped_; }

  /// Serializes the buffer as Chrome trace_event JSON ("JSON Object
  /// Format": traceEvents array plus otherData). Deterministic: metadata
  /// sorted by track id, events in insertion order, integers only.
  void write_chrome_json(std::ostream& os) const;

 private:
  struct Event {
    long long ts = 0;
    long long dur = 0;
    long long a_value = 0;
    long long b_value = 0;
    std::uint32_t name = 0;
    std::uint32_t track = 0;
    std::uint32_t a_key = 0;
    std::uint32_t b_key = 0;
    char ph = 'X';
  };

  void push(const Event& ev);
  std::uint32_t intern_key(const char* key);

  std::size_t capacity_;
  std::size_t dropped_ = 0;
  long long time_offset_ = 0;
  std::vector<Event> events_;
  std::vector<std::string> strings_;
  std::unordered_map<std::string, std::uint32_t> ids_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> track_names_;
};

/// Escapes `s` for inclusion inside a JSON string literal.
std::string json_escape(std::string_view s);

}  // namespace pfar::obsv
