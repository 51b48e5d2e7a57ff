#include "obsv/report.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <stdexcept>

#include "obsv/metrics.hpp"
#include "obsv/trace.hpp"

namespace pfar::obsv {
namespace {

// --- JSON parsing ----------------------------------------------------------

struct Parser {
  std::string_view text;
  std::size_t pos = 0;

  [[noreturn]] void fail(const std::string& what) const {
    throw std::runtime_error("json parse error at offset " +
                             std::to_string(pos) + ": " + what);
  }

  void skip_ws() {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\n' ||
            text[pos] == '\r')) {
      ++pos;
    }
  }

  char peek() {
    if (pos >= text.size()) fail("unexpected end of input");
    return text[pos];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos;
  }

  bool consume_literal(std::string_view lit) {
    if (text.substr(pos, lit.size()) != lit) return false;
    pos += lit.size();
    return true;
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos >= text.size()) fail("unterminated string");
      const char c = text[pos++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos >= text.size()) fail("unterminated escape");
      const char e = text[pos++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos + 4 > text.size()) fail("bad \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text[pos++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail("bad \\u escape digit");
          }
          // The artifacts this parser consumes only escape control chars;
          // encode BMP code points as UTF-8.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  JsonValue parse_value() {
    skip_ws();
    const char c = peek();
    JsonValue v;
    if (c == '{') {
      v.type = JsonValue::Type::kObject;
      ++pos;
      skip_ws();
      if (peek() == '}') {
        ++pos;
        return v;
      }
      while (true) {
        skip_ws();
        std::string key = parse_string();
        skip_ws();
        expect(':');
        v.object.emplace(std::move(key), parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect('}');
        return v;
      }
    }
    if (c == '[') {
      v.type = JsonValue::Type::kArray;
      ++pos;
      skip_ws();
      if (peek() == ']') {
        ++pos;
        return v;
      }
      while (true) {
        v.array.push_back(parse_value());
        skip_ws();
        if (peek() == ',') {
          ++pos;
          continue;
        }
        expect(']');
        return v;
      }
    }
    if (c == '"') {
      v.type = JsonValue::Type::kString;
      v.string = parse_string();
      return v;
    }
    if (consume_literal("true")) {
      v.type = JsonValue::Type::kBool;
      v.boolean = true;
      return v;
    }
    if (consume_literal("false")) {
      v.type = JsonValue::Type::kBool;
      return v;
    }
    if (consume_literal("null")) return v;
    // Number, exactly RFC 8259's grammar:
    // -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    const std::size_t start = pos;
    const auto digits = [&] {
      const std::size_t from = pos;
      while (pos < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[pos])) != 0) {
        ++pos;
      }
      return pos > from;
    };
    const auto at = [&](char ch) {
      return pos < text.size() && text[pos] == ch;
    };
    if (at('-')) ++pos;
    if (at('0')) {
      ++pos;
    } else if (!digits()) {
      fail(pos == start ? "unexpected character" : "malformed number");
    }
    if (at('.')) {
      ++pos;
      if (!digits()) fail("malformed number");
    }
    if (at('e') || at('E')) {
      ++pos;
      if (at('+') || at('-')) ++pos;
      if (!digits()) fail("malformed number");
    }
    v.type = JsonValue::Type::kNumber;
    v.string = text.substr(start, pos - start);
    v.number = std::strtod(v.string.c_str(), nullptr);
    return v;
  }
};

// Splits "link.3->17.flits" into ("3->17", "flits"); empty middle on
// mismatch. `prefix` includes the trailing dot.
bool split_metric(std::string_view name, std::string_view prefix,
                  std::string* middle, std::string* field) {
  if (name.substr(0, prefix.size()) != prefix) return false;
  const std::string_view rest = name.substr(prefix.size());
  const std::size_t dot = rest.rfind('.');
  if (dot == std::string_view::npos) return false;
  *middle = std::string(rest.substr(0, dot));
  *field = std::string(rest.substr(dot + 1));
  return true;
}

}  // namespace

const JsonValue* JsonValue::get(std::string_view key) const {
  if (type != Type::kObject) return nullptr;
  const auto it = object.find(std::string(key));
  return it == object.end() ? nullptr : &it->second;
}

double JsonValue::num(std::string_view key, double fallback) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->type == Type::kNumber ? v->number : fallback;
}

std::string JsonValue::str(std::string_view key,
                           std::string_view fallback) const {
  const JsonValue* v = get(key);
  return v != nullptr && v->type == Type::kString ? v->string
                                                  : std::string(fallback);
}

JsonValue parse_json(std::string_view text) {
  Parser p{text};
  JsonValue v = p.parse_value();
  p.skip_ws();
  if (p.pos != text.size()) p.fail("trailing content");
  return v;
}

std::vector<ReportEvent> parse_trace(
    std::string_view trace_json, long long* dropped,
    std::map<long long, std::string>* track_names) {
  std::vector<ReportEvent> out;
  if (trace_json.empty()) return out;
  const JsonValue doc = parse_json(trace_json);
  if (dropped != nullptr) {
    const JsonValue* other = doc.get("otherData");
    *dropped = other != nullptr
                   ? static_cast<long long>(other->num("dropped_events"))
                   : 0;
  }
  const JsonValue* events = doc.get("traceEvents");
  if (events == nullptr || !events->is_array()) {
    throw std::runtime_error("trace: missing traceEvents array");
  }
  out.reserve(events->array.size());
  for (const JsonValue& ev : events->array) {
    const std::string ph = ev.str("ph", "?");
    if (ph == "M") {  // metadata
      if (track_names != nullptr && ev.str("name") == "thread_name") {
        if (const JsonValue* margs = ev.get("args"); margs != nullptr) {
          (*track_names)[static_cast<long long>(ev.num("tid"))] =
              margs->str("name");
        }
      }
      continue;
    }
    ReportEvent re;
    re.ph = ph.empty() ? '?' : ph[0];
    re.ts = static_cast<long long>(ev.num("ts"));
    re.dur = static_cast<long long>(ev.num("dur"));
    re.track = static_cast<long long>(ev.num("tid"));
    re.name = ev.str("name");
    if (const JsonValue* args = ev.get("args");
        args != nullptr && args->is_object()) {
      for (const auto& [k, v] : args->object) {
        if (v.type == JsonValue::Type::kNumber) {
          re.args[k] = static_cast<long long>(v.number);
        }
      }
    }
    out.push_back(std::move(re));
  }
  return out;
}

RunReport build_report(std::string_view trace_json,
                       std::string_view metrics_jsonl) {
  RunReport report;

  // --- Metrics: one JSON object per line. ---------------------------------
  std::map<std::string, RunReport::Link> links;
  std::map<int, RunReport::Tree> trees;
  std::size_t line_start = 0;
  while (line_start < metrics_jsonl.size()) {
    std::size_t line_end = metrics_jsonl.find('\n', line_start);
    if (line_end == std::string_view::npos) line_end = metrics_jsonl.size();
    const std::string_view line =
        metrics_jsonl.substr(line_start, line_end - line_start);
    line_start = line_end + 1;
    if (line.empty()) continue;
    const JsonValue m = parse_json(line);
    const std::string name = m.str("name");
    const std::string type = m.str("type");
    const long long value = static_cast<long long>(m.num("value"));
    if (type == "counter") report.counters[name] = value;

    std::string middle, field;
    if (split_metric(name, "link.", &middle, &field)) {
      RunReport::Link& link = links[middle];
      link.name = middle;
      if (field == "flits") link.flits = value;
      else if (field == "dropped_flits") link.dropped_flits = value;
      else if (field == "queue_hwm") link.queue_hwm = value;
      else if (field == "bg_flits") link.bg_flits = value;
      else if (field == "busy_cycles") link.busy_cycles = value;
    } else if (split_metric(name, "tree.", &middle, &field)) {
      const int id = std::atoi(middle.c_str());
      RunReport::Tree& tree = trees[id];
      tree.id = id;
      if (field == "finish_cycle") tree.finish_cycle = value;
      else if (field == "first_delivery") tree.first_delivery = value;
      else if (field == "failed") tree.failed = value != 0;
    } else if (name.substr(0, 8) == "planner." && type == "histogram") {
      report.planner_ms[name.substr(8)] = m.num("sum");
    } else if (name.substr(0, 5) == "flow." && type == "histogram") {
      report.flow[name.substr(5)] = m.num("sum");
    } else if (name == "sim.cycles") {
      report.cycles = value;
    } else if (name == "sim.total_elements") {
      report.total_elements = value;
    } else if (name == "recovery.total_cycles") {
      // End-to-end timeline beats the per-attempt maximum when present.
      report.cycles = value;
    }
  }

  // --- Trace: busy spans and the fault/recovery timeline. Busy spans are
  // joined to their link via the track-name metadata ("link u->v").
  std::map<long long, std::string> track_names;
  const std::vector<ReportEvent> events =
      parse_trace(trace_json, &report.trace_dropped, &track_names);
  report.trace_events = static_cast<long long>(events.size());
  std::map<std::string, long long> trace_busy;
  for (const ReportEvent& ev : events) {
    if (ev.track >= 100000 && ev.ph == 'X') {  // kTrackLinkBase
      std::string key;
      if (const auto it = track_names.find(ev.track);
          it != track_names.end() && it->second.substr(0, 5) == "link ") {
        key = it->second.substr(5);
      } else {
        key = "dlink" + std::to_string(ev.track - 100000);
      }
      trace_busy[key] += ev.dur;
    } else if (ev.track <= 1) {  // kTrackSim / kTrackRecovery
      report.timeline.push_back(ev);
    } else if (ev.track == kTrackAdapt) {  // congestion controller
      report.adapt.push_back(ev);
    } else if (ev.track == kTrackWorkload) {  // training replay
      report.workload.push_back(ev);
    }
  }
  // The busy_cycles counter (emitted since the controller landed) is
  // authoritative; summed trace spans back-fill reports built from older
  // artifacts that only carried the spans.
  for (const auto& [key, busy] : trace_busy) {
    RunReport::Link& link = links[key];
    if (link.name.empty()) link.name = key;
    if (link.busy_cycles == 0) link.busy_cycles = busy;
  }
  const auto by_ts = [](const ReportEvent& a, const ReportEvent& b) {
    return a.ts < b.ts;
  };
  std::stable_sort(report.timeline.begin(), report.timeline.end(), by_ts);
  std::stable_sort(report.adapt.begin(), report.adapt.end(), by_ts);
  std::stable_sort(report.workload.begin(), report.workload.end(), by_ts);

  for (auto& [key, link] : links) report.links.push_back(link);
  std::stable_sort(report.links.begin(), report.links.end(),
                   [](const RunReport::Link& a, const RunReport::Link& b) {
                     return a.flits > b.flits;
                   });
  for (auto& [id, tree] : trees) report.trees.push_back(tree);
  return report;
}

void render_report(const RunReport& report, std::ostream& os, int top_k) {
  char buf[256];
  os << "== pfar run report ==\n";
  std::snprintf(buf, sizeof buf,
                "cycles: %lld   elements: %lld   trace: %lld events "
                "(%lld dropped)\n",
                report.cycles, report.total_elements, report.trace_events,
                report.trace_dropped);
  os << buf;

  if (!report.flow.empty()) {
    os << "\n-- flow tier --\n";
    for (const auto& [name, value] : report.flow) {
      std::snprintf(buf, sizeof buf, "%-24s %12.4f\n", name.c_str(), value);
      os << buf;
    }
    const auto bw = report.flow.find("sim_bw");
    const auto bound = report.flow.find("rate_upper_bound");
    if (bw != report.flow.end() && bound != report.flow.end() &&
        bound->second > 0) {
      std::snprintf(buf, sizeof buf,
                    "sim_bw / rate upper bound = %.4f (Zhou & Sun "
                    "aggregation ceiling)\n",
                    bw->second / bound->second);
      os << buf;
    }
  }

  if (!report.links.empty()) {
    os << "\n-- top " << top_k << " congested links (by flits) --\n";
    std::snprintf(buf, sizeof buf, "%-12s %10s %10s %7s %10s %9s\n", "link",
                  "flits", "bg_flits", "busy%", "queue_hwm", "dropped");
    os << buf;
    int shown = 0;
    for (const RunReport::Link& link : report.links) {
      if (shown++ >= top_k) break;
      const double busy_pct =
          report.cycles > 0
              ? 100.0 * static_cast<double>(link.busy_cycles) /
                    static_cast<double>(report.cycles)
              : 0.0;
      std::snprintf(buf, sizeof buf,
                    "%-12s %10lld %10lld %6.1f%% %10lld %9lld\n",
                    link.name.c_str(), link.flits, link.bg_flits, busy_pct,
                    link.queue_hwm, link.dropped_flits);
      os << buf;
    }
  }

  if (!report.trees.empty()) {
    os << "\n-- tree completion skew --\n";
    std::snprintf(buf, sizeof buf, "%-6s %15s %13s %7s\n", "tree",
                  "first_delivery", "finish_cycle", "failed");
    os << buf;
    long long min_finish = -1, max_finish = -1;
    for (const RunReport::Tree& tree : report.trees) {
      std::snprintf(buf, sizeof buf, "%-6d %15lld %13lld %7s\n", tree.id,
                    tree.first_delivery, tree.finish_cycle,
                    tree.failed ? "yes" : "no");
      os << buf;
      if (tree.failed || tree.finish_cycle < 0) continue;
      if (min_finish < 0 || tree.finish_cycle < min_finish) {
        min_finish = tree.finish_cycle;
      }
      max_finish = std::max(max_finish, tree.finish_cycle);
    }
    if (min_finish > 0) {
      std::snprintf(buf, sizeof buf,
                    "skew: max/min finish = %.3f (max %lld, min %lld)\n",
                    static_cast<double>(max_finish) /
                        static_cast<double>(min_finish),
                    max_finish, min_finish);
      os << buf;
    }
  }

  if (!report.timeline.empty()) {
    os << "\n-- fault / recovery timeline --\n";
    for (const ReportEvent& ev : report.timeline) {
      if (ev.ph == 'X') {
        std::snprintf(buf, sizeof buf, "cycle %lld..%lld: %s", ev.ts,
                      ev.ts + ev.dur, ev.name.c_str());
      } else {
        std::snprintf(buf, sizeof buf, "cycle %lld: %s", ev.ts,
                      ev.name.c_str());
      }
      os << buf;
      bool first = true;
      for (const auto& [k, v] : ev.args) {
        os << (first ? " (" : ", ") << k << "=" << v;
        first = false;
      }
      if (!first) os << ")";
      os << "\n";
    }
  }

  const bool any_adapt_counter = [&] {
    for (const auto& [name, value] : report.counters) {
      if (name.substr(0, 6) == "adapt.") return true;
    }
    return false;
  }();
  if (!report.adapt.empty() || any_adapt_counter) {
    os << "\n-- congestion adaptation timeline --\n";
    for (const ReportEvent& ev : report.adapt) {
      if (ev.ph == 'X') {
        std::snprintf(buf, sizeof buf, "cycle %lld..%lld: %s", ev.ts,
                      ev.ts + ev.dur, ev.name.c_str());
      } else {
        std::snprintf(buf, sizeof buf, "cycle %lld: %s", ev.ts,
                      ev.name.c_str());
      }
      os << buf;
      bool first = true;
      for (const auto& [k, v] : ev.args) {
        os << (first ? " (" : ", ") << k << "=" << v;
        first = false;
      }
      if (!first) os << ")";
      os << "\n";
    }
    for (const auto& [name, value] : report.counters) {
      if (name.substr(0, 6) != "adapt.") continue;
      std::snprintf(buf, sizeof buf, "%-24s %12lld\n", name.c_str(), value);
      os << buf;
    }
  }

  const bool any_workload_counter = [&] {
    for (const auto& [name, value] : report.counters) {
      if (name.substr(0, 9) == "workload.") return true;
    }
    return false;
  }();
  if (!report.workload.empty() || any_workload_counter) {
    os << "\n-- training replay timeline --\n";
    for (const ReportEvent& ev : report.workload) {
      if (ev.ph == 'X') {
        std::snprintf(buf, sizeof buf, "cycle %lld..%lld: %s", ev.ts,
                      ev.ts + ev.dur, ev.name.c_str());
      } else {
        std::snprintf(buf, sizeof buf, "cycle %lld: %s", ev.ts,
                      ev.name.c_str());
      }
      os << buf;
      bool first = true;
      for (const auto& [k, v] : ev.args) {
        os << (first ? " (" : ", ") << k << "=" << v;
        first = false;
      }
      if (!first) os << ")";
      os << "\n";
    }
    for (const auto& [name, value] : report.counters) {
      if (name.substr(0, 9) != "workload.") continue;
      std::snprintf(buf, sizeof buf, "%-28s %12lld\n", name.c_str(), value);
      os << buf;
    }
  }

  if (!report.planner_ms.empty()) {
    os << "\n-- planner phases --\n";
    for (const auto& [phase, ms] : report.planner_ms) {
      std::snprintf(buf, sizeof buf, "%-16s %10.3f ms\n", phase.c_str(), ms);
      os << buf;
    }
  }

  if (!report.counters.empty()) {
    const auto show = [&](const char* name) {
      const auto it = report.counters.find(name);
      if (it == report.counters.end()) return;
      std::snprintf(buf, sizeof buf, "%-24s %12lld\n", name,
                    it->second);
      os << buf;
    };
    os << "\n-- accounting --\n";
    show("sim.credit_stalls");
    show("sim.skipped_cycles");
    show("sim.dropped_packets");
    show("sim.dropped_flits");
    show("sim.canceled_packets");
    show("sim.canceled_flits");
    show("sim.fault_events");
    show("recovery.attempts");
    show("recovery.chunks_replayed");
  }
}

}  // namespace pfar::obsv
