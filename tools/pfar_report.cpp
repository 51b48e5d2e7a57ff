// pfar_report: renders a human-readable run report from the observability
// artifacts a simulation run writes (Chrome trace JSON + metrics JSONL).
//
//   pfar_report --trace trace.json --metrics metrics.jsonl [--top 10]
//               [--out report.txt]
//
// Either artifact may be omitted; sections derived from the missing half
// are empty. See docs/observability.md for the artifact formats.

#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "obsv/report.hpp"
#include "util/args.hpp"

namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("pfar_report: cannot open " + path);
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  const pfar::util::Args args(argc, argv,
      {"trace", "metrics", "out", "top", "help"});
  if (args.has("help") ||
      (!args.has("trace") && !args.has("metrics"))) {
    std::cout
        << "usage: pfar_report [--trace trace.json] [--metrics m.jsonl]\n"
           "                   [--top K] [--out report.txt]\n"
           "Renders a run report (congested links, tree skew, recovery\n"
           "timeline, planner phases) from observability artifacts.\n";
    return args.has("help") ? 0 : 2;
  }

  try {
    std::string trace_json, metrics_jsonl;
    if (args.has("trace")) trace_json = slurp(args.get_string("trace", ""));
    if (args.has("metrics")) {
      metrics_jsonl = slurp(args.get_string("metrics", ""));
    }

    const pfar::obsv::RunReport report =
        pfar::obsv::build_report(trace_json, metrics_jsonl);
    const int top_k = static_cast<int>(args.get_int("top", 10));

    if (args.has("out")) {
      const std::string path = args.get_string("out", "");
      std::ofstream out(path);
      if (!out) {
        throw std::runtime_error("pfar_report: cannot write " + path);
      }
      pfar::obsv::render_report(report, out, top_k);
    } else {
      pfar::obsv::render_report(report, std::cout, top_k);
    }
  } catch (const std::exception& e) {
    std::cerr << e.what() << "\n";
    return 1;
  }
  return 0;
}
