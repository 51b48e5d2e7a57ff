#include "obsv/metrics.hpp"

#include <algorithm>
#include <cstdio>
#include <ostream>
#include <stdexcept>

#include "obsv/trace.hpp"  // json_escape
#include "util/contracts.hpp"

namespace pfar::obsv {
namespace {

const char* kind_name(int k) {
  switch (k) {
    case 0: return "counter";
    case 1: return "gauge";
    default: return "histogram";
  }
}

// Shortest round-trip decimal for a double, C locale, no locale surprises.
std::string format_double(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  // Prefer the shorter %g forms when they round-trip exactly.
  for (int prec = 1; prec <= 16; ++prec) {
    char probe[64];
    std::snprintf(probe, sizeof probe, "%.*g", prec, v);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == v) return probe;
  }
  return buf;
}

}  // namespace

Metrics::Entry& Metrics::touch(std::string_view name, Kind kind) {
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    Entry e;
    e.kind = kind;
    return entries_.emplace(std::string(name), e).first->second;
  }
  if (it->second.kind != kind) {
    throw std::logic_error("obsv::Metrics: '" + std::string(name) +
                           "' already registered as " +
                           kind_name(static_cast<int>(it->second.kind)) +
                           ", touched as " +
                           kind_name(static_cast<int>(kind)));
  }
  return it->second;
}

const Metrics::Entry* Metrics::find(std::string_view name, Kind kind) const {
  const auto it = entries_.find(name);
  if (it == entries_.end() || it->second.kind != kind) return nullptr;
  return &it->second;
}

void Metrics::add(std::string_view name, long long delta) {
  touch(name, Kind::kCounter).value += delta;
}

void Metrics::hwm(std::string_view name, long long value) {
  Entry& e = touch(name, Kind::kGauge);
  if (e.count == 0 || value > e.value) e.value = value;
  ++e.count;
}

void Metrics::observe(std::string_view name, double value) {
  Entry& e = touch(name, Kind::kHistogram);
  if (e.count == 0) {
    e.min = value;
    e.max = value;
  } else {
    if (value < e.min) e.min = value;
    if (value > e.max) e.max = value;
  }
  e.sum += value;
  ++e.count;
}

long long Metrics::counter(std::string_view name) const {
  const Entry* e = find(name, Kind::kCounter);
  return e == nullptr ? 0 : e->value;
}

long long Metrics::gauge(std::string_view name) const {
  const Entry* e = find(name, Kind::kGauge);
  return e == nullptr ? 0 : e->value;
}

long long Metrics::histogram_count(std::string_view name) const {
  const Entry* e = find(name, Kind::kHistogram);
  return e == nullptr ? 0 : e->count;
}

bool Metrics::contains(std::string_view name) const {
  return entries_.find(name) != entries_.end();
}

std::vector<std::string> Metrics::names(std::string_view prefix) const {
  std::vector<std::string> out;
  for (auto it = entries_.lower_bound(prefix); it != entries_.end(); ++it) {
    if (it->first.compare(0, prefix.size(), prefix) != 0) break;
    out.push_back(it->first);
  }
  return out;
}

void Metrics::write_jsonl(std::ostream& os) const {
  for (const auto& [name, e] : entries_) {
    os << "{\"name\":\"" << json_escape(name) << "\",\"type\":\""
       << kind_name(static_cast<int>(e.kind)) << "\"";
    switch (e.kind) {
      case Kind::kCounter:
        os << ",\"value\":" << e.value;
        break;
      case Kind::kGauge:
        os << ",\"value\":" << e.value;
        break;
      case Kind::kHistogram:
        os << ",\"count\":" << e.count << ",\"sum\":" << format_double(e.sum)
           << ",\"min\":" << format_double(e.min)
           << ",\"max\":" << format_double(e.max);
        break;
    }
    os << "}\n";
  }
}

long long nearest_rank(std::vector<long long> samples, int pct) {
  PFAR_REQUIRE(!samples.empty() && pct >= 0 && pct <= 100, samples.size(),
               pct);
  const std::size_t rank = std::max<std::size_t>(
      (static_cast<std::size_t>(pct) * samples.size() + 99) / 100, 1);
  const auto nth = samples.begin() + static_cast<std::ptrdiff_t>(rank - 1);
  std::nth_element(samples.begin(), nth, samples.end());
  return *nth;
}

}  // namespace pfar::obsv
