// Shared provenance stamp for the BENCH_*.json artifacts. Every bench
// binary opens its JSON with write_meta(json, kSchemaVersion) so a stored
// result identifies the commit, schema and time it came from — the CI
// bench-regression gate and ad-hoc archaeology both lean on this.
#pragma once

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>
#include <string>

#include "obsv/recorder.hpp"
#include "obsv/report.hpp"
#include "simnet/config.hpp"
#include "util/args.hpp"

namespace pfar::bench {

/// Shared `--engine horizon|flow` flag for the simulation
/// benches (EXPERIMENTS.md): every bench that runs AllreduceSimulator
/// resolves its engine here instead of hard-coding one. Defaults to the
/// fast-forward (horizon) engine. Throws std::invalid_argument on an
/// unknown name; benches whose scenario a tier cannot honor (e.g. fault
/// injection on the flow tier) surface the simulator's own error.
inline simnet::SimEngine engine_arg(const util::Args& args) {
  return simnet::engine_from_string(args.get_string("engine", "horizon"));
}

/// Best-effort commit id of the tree the benchmark ran in: $GITHUB_SHA if
/// set (CI), else `git rev-parse HEAD`, else "unknown". Sanitized to a
/// 40-char hex string so it can be embedded in JSON verbatim.
inline std::string git_sha() {
  std::string sha;
  if (const char* env = std::getenv("GITHUB_SHA")) {
    sha = env;
  } else if (FILE* p = ::popen("git rev-parse HEAD 2>/dev/null", "r")) {
    char buf[64];
    if (std::fgets(buf, sizeof buf, p) != nullptr) sha = buf;
    ::pclose(p);
  }
  while (!sha.empty() && (sha.back() == '\n' || sha.back() == '\r')) {
    sha.pop_back();
  }
  if (sha.size() != 40) return "unknown";
  for (char c : sha) {
    if (std::isxdigit(static_cast<unsigned char>(c)) == 0) return "unknown";
  }
  return sha;
}

/// Current UTC time as ISO 8601 (e.g. "2026-08-07T12:34:56Z").
inline std::string utc_timestamp() {
  const std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  char buf[32];
  std::strftime(buf, sizeof buf, "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

/// Writes the `"_meta"` member (with trailing comma) right after the
/// opening `{` of a BENCH_*.json. The underscore prefix keeps it visually
/// apart from the measured payload; tools/check_bench_regression.py
/// ignores it when diffing against baselines.
inline void write_meta(FILE* json, int schema_version) {
  std::fprintf(json,
               "  \"_meta\": {\"schema_version\": %d, \"git_sha\": \"%s\", "
               "\"timestamp\": \"%s\"},\n",
               schema_version, git_sha().c_str(), utc_timestamp().c_str());
}

/// True when any of the shared `--trace/--metrics/--report PATH`
/// observability flags is given: the bench then re-runs one design point
/// with an obsv::Recorder attached and hands it to write_artifacts.
inline bool wants_artifacts(const util::Args& args) {
  return args.has("trace") || args.has("metrics") || args.has("report");
}

/// Writes the artifacts the flags name from `recorder`: the Chrome trace
/// JSON, the metrics JSONL, and the run report, rendered after a round
/// trip through obsv::build_report exactly as tools/pfar_report reads the
/// files (docs/observability.md). `what` names the recorded run in the
/// one-line stderr summary.
inline void write_artifacts(const util::Args& args,
                            const obsv::Recorder& recorder,
                            const std::string& what) {
  recorder.write_files(args.get_string("trace", ""),
                       args.get_string("metrics", ""));
  std::fprintf(stderr, "observability: %s -> %zu trace events, %zu metrics\n",
               what.c_str(), recorder.trace.size(), recorder.metrics.size());
  if (!args.has("report")) return;
  std::ostringstream trace_json, metrics_jsonl;
  recorder.trace.write_chrome_json(trace_json);
  recorder.metrics.write_jsonl(metrics_jsonl);
  const auto report = obsv::build_report(trace_json.str(), metrics_jsonl.str());
  const std::string report_path = args.get_string("report", "");
  std::ofstream out(report_path);
  if (out) {
    obsv::render_report(report, out);
    std::fprintf(stderr, "wrote %s\n", report_path.c_str());
  } else {
    std::fprintf(stderr, "warning: could not open %s for writing\n",
                 report_path.c_str());
  }
}

}  // namespace pfar::bench
