#pragma once

#include <string>

#include "obsv/metrics.hpp"
#include "obsv/trace.hpp"

namespace pfar::obsv {

/// The observability sink one run writes into: a trace (virtual-time event
/// timeline) plus a metrics registry. Attach one to a simulation via
/// SimConfig::recorder and/or to a planner via AllreducePlanner::observer;
/// a null recorder (the default everywhere) records nothing and costs one
/// pointer test per hook.
///
/// Single-writer, like its parts: never share one Recorder between
/// concurrently running simulations (a sweep uses one per task or none).
struct Recorder {
  Tracer trace;
  Metrics metrics;

  explicit Recorder(std::size_t trace_capacity = 1u << 16)
      : trace(trace_capacity) {}

  /// Writes the Chrome trace JSON and the metrics JSONL snapshot. Either
  /// path may be empty to skip that output. Throws std::runtime_error when
  /// a path cannot be opened.
  void write_files(const std::string& trace_path,
                   const std::string& metrics_path) const;
};

}  // namespace pfar::obsv
