#include "obsv/trace.hpp"

#include <algorithm>
#include <ostream>

namespace pfar::obsv {

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  strings_.emplace_back();  // id 0 reserved
  events_.reserve(std::min<std::size_t>(capacity_, 1024));
}

std::uint32_t Tracer::intern(std::string_view s) {
  const auto it = ids_.find(std::string(s));
  if (it != ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(strings_.size());
  strings_.emplace_back(s);
  ids_.emplace(strings_.back(), id);
  return id;
}

std::uint32_t Tracer::intern_key(const char* key) {
  return key == nullptr ? 0 : intern(key);
}

void Tracer::push(const Event& ev) {
  if (events_.size() >= capacity_) {
    ++dropped_;
    return;
  }
  events_.push_back(ev);
}

void Tracer::complete(long long ts, long long dur, std::uint32_t name,
                      std::uint32_t track, TraceArg a, TraceArg b) {
  Event ev;
  ev.ts = ts + time_offset_;
  ev.dur = dur;
  ev.name = name;
  ev.track = track;
  ev.ph = 'X';
  ev.a_key = intern_key(a.key);
  ev.a_value = a.value;
  ev.b_key = intern_key(b.key);
  ev.b_value = b.value;
  push(ev);
}

void Tracer::instant(long long ts, std::uint32_t name, std::uint32_t track,
                     TraceArg a, TraceArg b) {
  Event ev;
  ev.ts = ts + time_offset_;
  ev.name = name;
  ev.track = track;
  ev.ph = 'i';
  ev.a_key = intern_key(a.key);
  ev.a_value = a.value;
  ev.b_key = intern_key(b.key);
  ev.b_value = b.value;
  push(ev);
}

void Tracer::name_track(std::uint32_t track, std::string_view name) {
  const std::uint32_t id = intern(name);
  for (auto& [t, n] : track_names_) {
    if (t == track) {
      n = id;
      return;
    }
  }
  track_names_.emplace_back(track, id);
}

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          static const char* hex = "0123456789abcdef";
          out += "\\u00";
          out += hex[(c >> 4) & 0xf];
          out += hex[c & 0xf];
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Tracer::write_chrome_json(std::ostream& os) const {
  os << "{\n\"displayTimeUnit\": \"ms\",\n";
  os << "\"otherData\": {\"time_unit\": \"cycle\", \"dropped_events\": "
     << dropped_ << "},\n";
  os << "\"traceEvents\": [";
  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    os << (first ? "\n" : ",\n");
    first = false;
    return os;
  };
  auto sorted_tracks = track_names_;
  std::sort(sorted_tracks.begin(), sorted_tracks.end());
  for (const auto& [track, name] : sorted_tracks) {
    sep() << "{\"ph\":\"M\",\"pid\":0,\"tid\":" << track
          << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
          << json_escape(strings_[name]) << "\"}}";
  }
  for (const Event& ev : events_) {
    sep() << "{\"ph\":\"" << ev.ph << "\",\"pid\":0,\"tid\":" << ev.track
          << ",\"ts\":" << ev.ts;
    if (ev.ph == 'X') os << ",\"dur\":" << ev.dur;
    if (ev.ph == 'i') os << ",\"s\":\"t\"";
    os << ",\"name\":\"" << json_escape(strings_[ev.name]) << "\"";
    if (ev.a_key != 0 || ev.b_key != 0) {
      os << ",\"args\":{";
      if (ev.a_key != 0) {
        os << "\"" << json_escape(strings_[ev.a_key])
           << "\":" << ev.a_value;
      }
      if (ev.b_key != 0) {
        if (ev.a_key != 0) os << ",";
        os << "\"" << json_escape(strings_[ev.b_key])
           << "\":" << ev.b_value;
      }
      os << "}";
    }
    os << "}";
  }
  os << "\n]}\n";
}

}  // namespace pfar::obsv
