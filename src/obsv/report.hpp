#pragma once

#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace pfar::obsv {

class Metrics;

/// Minimal JSON value for consuming this repo's own artifacts (traces,
/// metrics snapshots, BENCH_*.json). Full RFC 8259 grammar minus exotic
/// number forms; throws std::runtime_error with an offset on bad input.
struct JsonValue {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  /// A string's value, or a number's source text (so a reader can take an
  /// integer exactly rather than through `number`).
  std::string string;
  std::vector<JsonValue> array;
  std::map<std::string, JsonValue> object;

  bool is_object() const { return type == Type::kObject; }
  bool is_array() const { return type == Type::kArray; }
  /// Member lookup; nullptr when absent or not an object.
  const JsonValue* get(std::string_view key) const;
  /// Numeric member with fallback.
  double num(std::string_view key, double fallback = 0.0) const;
  /// String member with fallback.
  std::string str(std::string_view key, std::string_view fallback = "") const;
};

/// Parses one JSON document (object, array or scalar).
JsonValue parse_json(std::string_view text);

// --- Run reports -----------------------------------------------------------

/// One trace event, decoded from the Chrome JSON this repo emits.
struct ReportEvent {
  char ph = 'X';
  long long ts = 0;
  long long dur = 0;
  long long track = 0;
  std::string name;
  std::map<std::string, long long> args;
};

/// Everything pfar_report extracts from a trace + metrics pair. Either
/// input may be empty; sections derived from the missing half are empty.
struct RunReport {
  struct Link {
    std::string name;        // "u->v"
    long long flits = 0;
    long long dropped_flits = 0;
    long long queue_hwm = 0;
    long long bg_flits = 0;     // background traffic drained on the link
    long long busy_cycles = 0;  // busy_cycles counter, else trace spans
  };
  struct Tree {
    int id = 0;
    long long finish_cycle = -1;
    long long first_delivery = -1;
    bool failed = false;
  };

  long long cycles = 0;
  long long total_elements = 0;
  long long trace_events = 0;
  long long trace_dropped = 0;
  std::vector<Link> links;            // sorted by flits, descending
  std::vector<Tree> trees;            // sorted by id
  std::vector<ReportEvent> timeline;  // fault/recovery events, by ts
  std::vector<ReportEvent> adapt;     // congestion-controller events, by ts
  std::vector<ReportEvent> workload;  // training-replay events, by ts
  std::map<std::string, double> planner_ms;  // phase -> total ms
  std::map<std::string, long long> counters;  // every counter metric
  /// Flow-tier observations ("flow."-prefixed histograms): sim_bw and the
  /// Zhou & Sun rate_upper_bound, rendered next to the cycle summary so a
  /// flow run's bandwidth is read against its analytic ceiling.
  std::map<std::string, double> flow;
};

/// Decodes a Chrome trace JSON document into events. thread_name metadata
/// records are not returned as events; when `track_names` is non-null they
/// land there as track id -> name instead.
std::vector<ReportEvent> parse_trace(
    std::string_view trace_json, long long* dropped = nullptr,
    std::map<long long, std::string>* track_names = nullptr);

/// Builds a report from raw artifact text. Either argument may be empty.
RunReport build_report(std::string_view trace_json,
                       std::string_view metrics_jsonl);

/// Renders the human-readable run report (top-k congested links, tree
/// skew, recovery timeline, planner phases).
void render_report(const RunReport& report, std::ostream& os, int top_k = 10);

}  // namespace pfar::obsv
