// Command-line front end for the library — the workflow a deployment
// control plane would script:
//
//   ./pfar_tool plan --q 7 --solution disjoint --out plan.pfar
//   ./pfar_tool simulate --q 7 --solution lowdepth --m 50000
//   ./pfar_tool verify --in plan.pfar
//   ./pfar_tool degrade --q 7 --fail 3
//
// `plan` writes the serialized plan (core::serialize_plan: edge list,
// trees, bandwidths, checksum); `verify` re-parses it, which checks every
// tree against the file's edge list, and checks that edge list against
// the topology regenerated for the file's q, solution and starter;
// `degrade` fails links and reports surviving vs repacked bandwidth.

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "core/planner.hpp"
#include "core/resilience.hpp"
#include "core/serialize.hpp"
#include "util/args.hpp"

namespace {

using namespace pfar;

core::Solution parse_solution(const std::string& name) {
  if (name == "lowdepth") return core::Solution::kLowDepth;
  if (name == "disjoint") return core::Solution::kEdgeDisjoint;
  if (name == "single") return core::Solution::kSingleTree;
  throw std::invalid_argument("unknown solution: " + name +
                              " (use lowdepth|disjoint|single)");
}

int cmd_plan(const util::Args& args) {
  const int q = static_cast<int>(args.get_int("q", 7));
  const auto plan =
      core::AllreducePlanner(q)
          .solution(parse_solution(args.get_string("solution", "lowdepth")))
          .build();
  const std::string text = core::serialize_plan(plan, 0);
  const std::string out = args.get_string("out", "");
  if (out.empty()) {
    std::cout << text;
  } else {
    std::ofstream file(out);
    if (!file) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    file << text;
    std::printf("wrote %zu trees (aggregate %.1f x B, depth %d) to %s\n",
                plan.trees().size(), plan.aggregate_bandwidth(),
                plan.max_depth(), out.c_str());
  }
  return 0;
}

int cmd_simulate(const util::Args& args) {
  const int q = static_cast<int>(args.get_int("q", 7));
  const long long m = args.get_int("m", 20000);
  const auto plan =
      core::AllreducePlanner(q)
          .solution(parse_solution(args.get_string("solution", "lowdepth")))
          .build();
  simnet::SimConfig cfg;
  cfg.link_latency = static_cast<int>(args.get_int("latency", cfg.link_latency));
  cfg.packet_payload =
      static_cast<int>(args.get_int("payload", cfg.packet_payload));
  cfg.packet_header_flits =
      static_cast<int>(args.get_int("header", cfg.packet_header_flits));
  const auto res = plan.simulate(m, cfg);
  std::printf("q=%d nodes=%d trees=%d depth=%d congestion=%d\n", q,
              plan.num_nodes(), plan.num_trees(), plan.max_depth(),
              plan.max_congestion());
  std::printf("predicted BW %.3f x B, simulated %.3f elem/cycle "
              "(efficiency %.3f), %lld cycles, correct=%s\n",
              plan.aggregate_bandwidth(), res.sim.aggregate_bandwidth,
              res.efficiency_vs_model, res.sim.cycles,
              res.sim.values_correct ? "yes" : "NO");
  return res.sim.values_correct ? 0 : 1;
}

int cmd_verify(const util::Args& args) {
  const std::string in = args.get_string("in", "");
  if (in.empty()) {
    std::fprintf(stderr, "verify: --in file required\n");
    return 1;
  }
  std::ifstream file(in);
  if (!file) {
    std::fprintf(stderr, "cannot read %s\n", in.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << file.rdbuf();
  const auto parsed = core::parse_plan(buffer.str());
  const core::AllreducePlan& plan = parsed.plan;
  // parse_plan has checked that n and the edge count are ER_q's, so the
  // planner below builds a topology no larger than the file describes.
  if (plan.topology().edges() != core::AllreducePlanner(plan.q())
                                     .solution(plan.solution())
                                     .starter_quadric(parsed.starter)
                                     .build()
                                     .topology()
                                     .edges()) {
    std::fprintf(stderr, "%s: edge list is not the %s topology of ER_%d\n",
                 in.c_str(), core::to_string(plan.solution()).c_str(),
                 plan.q());
    return 1;
  }
  std::printf("%d trees verified against ER_%d (congestion %d)\n",
              plan.num_trees(), plan.q(), plan.max_congestion());
  return 0;
}

int cmd_degrade(const util::Args& args) {
  const int q = static_cast<int>(args.get_int("q", 7));
  const int fail = static_cast<int>(args.get_int("fail", 1));
  const auto plan = core::AllreducePlanner(q).build();
  std::vector<graph::Edge> failed;
  for (int i = 0; i < fail; ++i) {
    failed.push_back(plan.topology().edge(
        (i * 37) % plan.topology().num_edges()));
  }
  const auto keep =
      core::degrade_keep_surviving(plan.topology(), plan.trees(), failed);
  const auto repack = core::degrade_repack(plan.topology(), failed);
  std::printf("healthy: %d trees, %.2f x B\n", plan.num_trees(),
              plan.aggregate_bandwidth());
  std::printf("after %zu failures — keep-surviving: %zu trees, %.2f x B; "
              "repack: %zu trees, %.2f x B\n",
              failed.size(), keep.trees.size(), keep.bandwidths.aggregate,
              repack.trees.size(), repack.bandwidths.aggregate);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: pfar_tool plan|simulate|verify|degrade [--flags]\n");
    return 1;
  }
  const std::string cmd = argv[1];
  try {
    // Each command reads its own flags; argv[1] plays argv[0].
    if (cmd == "plan") {
      return cmd_plan(util::Args(argc - 1, argv + 1, {"q", "solution", "out"}));
    }
    if (cmd == "simulate") {
      return cmd_simulate(util::Args(
          argc - 1, argv + 1,
          {"q", "m", "solution", "latency", "payload", "header"}));
    }
    if (cmd == "verify") {
      return cmd_verify(util::Args(argc - 1, argv + 1, {"in"}));
    }
    if (cmd == "degrade") {
      return cmd_degrade(util::Args(argc - 1, argv + 1, {"q", "fail"}));
    }
    std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
  }
  return 1;
}
