// pfar_audit: end-to-end invariant audit for PolarFly Allreduce plans.
//
// Loads a serialized plan (--plan FILE) or builds design points from
// scratch (--q N), then runs the full invariant battery against the
// paper's claims: Table 1 vertex partition sizes, layout Properties 1-3
// (Algorithm 2), Lemma 7.8 (congestion <= 2 with opposite reduction
// flows), Corollaries 7.15/7.16 (pairwise edge-disjoint Hamiltonian path
// trees), Lemma 7.17 depth bounds, plus cross-checks the code itself
// could get wrong as a unit: congestion recomputed from scratch against
// the planner's claim, Algorithm 1 bandwidths against the reference
// implementation, and a byte-exact serialization round trip.
//
// Output is a machine-readable JSON report (stdout or --out FILE).
// Exit status: 0 = every check passed, 1 = at least one violation,
// 2 = usage or I/O error.

#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "collectives/innetwork.hpp"
#include "collectives/resilient.hpp"
#include "core/planner.hpp"
#include "core/resilience.hpp"
#include "core/serialize.hpp"
#include "model/congestion_model.hpp"
#include "oracle/reference_allreduce.hpp"
#include "oracle/reference_planning.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"
#include "polarfly/erq.hpp"
#include "polarfly/layout.hpp"
#include "singer/difference_set.hpp"
#include "singer/disjoint.hpp"
#include "trees/spanning_tree.hpp"
#include "util/args.hpp"
#include "util/contracts.hpp"

namespace {

using pfar::core::AllreducePlan;
using pfar::core::Solution;

struct Check {
  std::string name;
  bool pass = false;
  std::string detail;
};

struct Report {
  std::string solution;
  int q = 0;
  int starter = 0;
  std::vector<Check> checks;

  int failed() const {
    int n = 0;
    for (const auto& c : checks) n += c.pass ? 0 : 1;
    return n;
  }
};

/// Runs one named check. The body returns its human-readable detail
/// string and signals failure by throwing; contract violations and any
/// other exception are captured as the failure detail.
template <typename Fn>
void run_check(std::vector<Check>& out, const std::string& name, Fn&& body) {
  Check c;
  c.name = name;
  try {
    c.detail = body();
    c.pass = true;
  } catch (const std::exception& e) {
    c.pass = false;
    c.detail = e.what();
  }
  out.push_back(std::move(c));
}

/// Failure signal for check bodies: carries the violation description.
struct Violation : std::runtime_error {
  explicit Violation(const std::string& what) : std::runtime_error(what) {}
};

template <typename T>
std::string str(const T& v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

void require(bool cond, const std::string& what) {
  if (!cond) throw Violation(what);
}

std::string solution_flag(Solution s) {
  switch (s) {
    case Solution::kLowDepth: return "low-depth";
    case Solution::kEdgeDisjoint: return "edge-disjoint";
    case Solution::kSingleTree: return "single-tree";
  }
  return "?";
}

/// Normalized undirected edge key for audit-local congestion counting,
/// independent of graph::Graph's edge ids.
long long edge_key(int n, int u, int v) {
  const long long a = u < v ? u : v;
  const long long b = u < v ? v : u;
  return a * static_cast<long long>(n) + b;
}

// ---------------------------------------------------------------------------
// Design-point checks (rebuilt from q alone, independent of the plan).
// ---------------------------------------------------------------------------

void check_table1(std::vector<Check>& out, int q) {
  run_check(out, "table1.partition_sizes", [q] {
    const pfar::polarfly::PolarFly pf(q);
    const int n = q * q + q + 1;
    require(pf.n() == n, "N != q^2+q+1: " + str(pf.n()));
    const int w = pf.count(pfar::polarfly::VertexType::kQuadric);
    const int v1 = pf.count(pfar::polarfly::VertexType::kV1);
    const int v2 = pf.count(pfar::polarfly::VertexType::kV2);
    require(w == q + 1, "|W| = " + str(w) + ", expected " + str(q + 1));
    if (q % 2 == 1) {
      require(v1 == q * (q + 1) / 2,
              "|V1| = " + str(v1) + ", expected " + str(q * (q + 1) / 2));
      require(v2 == q * (q - 1) / 2,
              "|V2| = " + str(v2) + ", expected " + str(q * (q - 1) / 2));
    } else {
      require(v1 == q * q, "|V1| = " + str(v1) + ", expected " + str(q * q));
      require(v2 == 0, "|V2| = " + str(v2) + ", expected 0 for even q");
    }
    return "|W| = " + str(w) + ", |V1| = " + str(v1) + ", |V2| = " + str(v2);
  });

  run_check(out, "topology.degree_law", [q] {
    const pfar::polarfly::PolarFly pf(q);
    const auto& g = pf.graph();
    int deg_q = 0;
    for (int v = 0; v < g.num_vertices(); ++v) {
      const int d = g.degree(v);
      if (d == q) {
        ++deg_q;
      } else if (d != q + 1) {
        throw Violation("vertex " + str(v) + " has degree " + str(d));
      }
    }
    require(deg_q == q + 1, "degree-q vertex count " + str(deg_q) +
                                ", expected " + str(q + 1) + " quadrics");
    return str(q + 1) + " quadrics of degree q, rest degree q+1";
  });

  if (q % 2 == 1) {
    run_check(out, "layout.properties_1_to_3", [q] {
      const pfar::polarfly::PolarFly pf(q);
      const auto layout = pfar::polarfly::build_layout(pf, 0);
      require(static_cast<int>(layout.clusters.size()) == q,
              "cluster count " + str(layout.clusters.size()));
      int covered = static_cast<int>(layout.quadric_cluster.size());
      for (const auto& cluster : layout.clusters) {
        require(static_cast<int>(cluster.size()) == q,
                "cluster size " + str(cluster.size()) + ", expected q");
        covered += static_cast<int>(cluster.size());
      }
      require(covered == pf.n(), "partition covers " + str(covered) + " of " +
                                     str(pf.n()) + " vertices");
      for (int v = 0; v < pf.n(); ++v) {
        const int c = layout.cluster_of[static_cast<std::size_t>(v)];
        if (pf.is_quadric(v)) {
          require(c == -1, "quadric " + str(v) + " mapped to cluster");
        } else {
          require(c >= 0 && c < q, "vertex " + str(v) + " unassigned");
        }
      }
      return str(q) + " clusters of size q partition V \\ W";
    });
  }

  run_check(out, "singer.difference_set", [q] {
    const auto d = pfar::singer::build_difference_set(q);
    require(d.n == static_cast<long long>(q) * q + q + 1,
            "N = " + str(d.n));
    require(static_cast<int>(d.elements.size()) == q + 1,
            "|D| = " + str(d.elements.size()) + ", expected q+1");
    require(pfar::singer::is_valid_difference_set(d.elements, d.n),
            "Definition 6.2 violated: differences do not cover Z_N \\ {0}");
    return "perfect difference set of order q+1 over Z_" + str(d.n);
  });
}

// ---------------------------------------------------------------------------
// Plan-level checks (work for built and deserialized plans alike).
// ---------------------------------------------------------------------------

void check_plan(std::vector<Check>& out, const AllreducePlan& plan,
                int starter) {
  const int q = plan.q();
  const auto& g = plan.topology();
  const auto& trees = plan.trees();
  const int n = g.num_vertices();

  run_check(out, "topology.order", [&] {
    require(n == q * q + q + 1,
            "n = " + str(n) + ", expected " + str(q * q + q + 1));
    return "n = " + str(n);
  });

  run_check(out, "trees.count", [&] {
    int expected = 0;
    switch (plan.solution()) {
      case Solution::kLowDepth: expected = (q % 2 == 1) ? q : q - 1; break;
      case Solution::kEdgeDisjoint:
        expected = pfar::singer::disjoint_hamiltonian_upper_bound(q);
        break;
      case Solution::kSingleTree: expected = 1; break;
    }
    require(plan.num_trees() == expected, "num_trees = " +
                                              str(plan.num_trees()) +
                                              ", expected " + str(expected));
    return str(plan.num_trees()) + " trees";
  });

  run_check(out, "trees.spanning", [&] {
    for (std::size_t i = 0; i < trees.size(); ++i) {
      require(trees[i].is_spanning_tree_of(g),
              "tree " + str(i) + " is not a spanning tree of the topology");
    }
    return "all " + str(trees.size()) + " trees span the topology";
  });

  run_check(out, "trees.depth_bound", [&] {
    int bound = 0;
    switch (plan.solution()) {
      case Solution::kLowDepth: bound = 3; break;           // Theorem 7.4
      case Solution::kSingleTree: bound = 2; break;         // diameter 2
      case Solution::kEdgeDisjoint: bound = n / 2; break;   // Lemma 7.17
    }
    for (std::size_t i = 0; i < trees.size(); ++i) {
      require(trees[i].depth() <= bound,
              "tree " + str(i) + " depth " + str(trees[i].depth()) +
                  " exceeds bound " + str(bound));
    }
    require(plan.max_depth() <= bound, "max_depth() disagrees");
    return "max depth " + str(plan.max_depth()) + " <= " + str(bound);
  });

  run_check(out, "congestion.recomputed", [&] {
    // Recount from scratch with an audit-local edge keying, independent
    // of graph::Graph's edge-id machinery and trees::edge_congestion.
    std::unordered_map<long long, int> load;
    for (const auto& t : trees) {
      for (const auto& e : t.edges()) {
        require(g.has_edge(e.u, e.v), "tree edge (" + str(e.u) + "," +
                                          str(e.v) + ") not in topology");
        ++load[edge_key(n, e.u, e.v)];
      }
    }
    int recomputed = 0;
    for (const auto& [key, c] : load) {
      static_cast<void>(key);
      recomputed = std::max(recomputed, c);
    }
    const int claimed = plan.max_congestion();
    require(recomputed == claimed, "recomputed max congestion " +
                                       str(recomputed) +
                                       " != planner claim " + str(claimed));
    const int bound = plan.solution() == Solution::kLowDepth ? 2 : 1;
    require(recomputed <= bound, "congestion " + str(recomputed) +
                                     " exceeds bound " + str(bound));
    return "max congestion " + str(recomputed) + " <= " + str(bound) +
           ", matches planner claim";
  });

  if (plan.solution() == Solution::kLowDepth) {
    run_check(out, "lemma7_8.opposite_flows", [&] {
      require(pfar::trees::opposite_reduction_flows(g, trees),
              "a doubly-loaded link carries same-direction reduction flows");
      return "every shared link reduces in opposite directions";
    });
  }

  if (plan.solution() == Solution::kEdgeDisjoint) {
    run_check(out, "cor7_15.pairwise_edge_disjoint", [&] {
      // Corollaries 7.15/7.16 via explicit pairwise edge-set
      // intersection, not just the congestion <= 1 shortcut.
      std::vector<std::set<long long>> sets(trees.size());
      for (std::size_t i = 0; i < trees.size(); ++i) {
        for (const auto& e : trees[i].edges()) {
          sets[i].insert(edge_key(n, e.u, e.v));
        }
      }
      for (std::size_t i = 0; i < sets.size(); ++i) {
        for (std::size_t j = i + 1; j < sets.size(); ++j) {
          for (long long key : sets[i]) {
            require(sets[j].count(key) == 0,
                    "trees " + str(i) + " and " + str(j) +
                        " share an edge (key " + str(key) + ")");
          }
        }
      }
      require(static_cast<int>(trees.size()) <=
                  pfar::singer::disjoint_hamiltonian_upper_bound(q),
              "more trees than Lemma 7.18's floor((q+1)/2) bound");
      return str(trees.size()) + " pairwise edge-disjoint path trees";
    });
  }

  run_check(out, "bandwidth.claim", [&] {
    const auto ref =
        pfar::oracle::compute_tree_bandwidths_reference(g, trees, 1.0);
    const auto& claimed = plan.bandwidths();
    require(claimed.per_tree.size() == ref.per_tree.size(),
            "per-tree bandwidth count mismatch");
    for (std::size_t i = 0; i < ref.per_tree.size(); ++i) {
      require(claimed.per_tree[i] == ref.per_tree[i],
              "tree " + str(i) + " bandwidth " + str(claimed.per_tree[i]) +
                  " != reference " + str(ref.per_tree[i]));
    }
    require(claimed.aggregate == ref.aggregate,
            "aggregate " + str(claimed.aggregate) + " != reference " +
                str(ref.aggregate));
    return "Algorithm 1 reference agrees, aggregate = " +
           str(ref.aggregate);
  });

  run_check(out, "bandwidth.rate_upper_bound", [&] {
    // Zhou & Sun style aggregation bound: no in-network schedule can beat
    // B * min(deg_min, E/(N-1)) (per-node cut / spanning-flow argument).
    // Algorithm 1's aggregate must sit at or below it.
    const double bound = pfar::model::allreduce_rate_upper_bound(g, 1.0);
    const double alg1 = plan.aggregate_bandwidth();
    require(alg1 <= bound + 1e-9,
            "Algorithm 1 aggregate " + str(alg1) +
                " exceeds the rate upper bound " + str(bound));
    return "aggregate " + str(alg1) + " <= upper bound " + str(bound);
  });

  run_check(out, "flow.crosscheck", [&] {
    // The flow tier's structural accounting must agree with the cycle
    // engine exactly, and its fluid bandwidth must respect both Algorithm 1
    // and the rate upper bound (it models the same schedule).
    const long long m = 20000;
    const auto run_with = [&](pfar::simnet::SimEngine engine) {
      pfar::simnet::SimConfig cfg;
      cfg.engine = engine;
      pfar::simnet::AllreduceSimulator sim(g, trees, cfg);
      return sim.run(plan.split(m));
    };
    const auto flow = run_with(pfar::simnet::SimEngine::kFlow);
    const auto fast = run_with(pfar::simnet::SimEngine::kFastForward);
    require(flow.link_flits == fast.link_flits,
            "flow tier per-link flit totals diverge from the cycle engine");
    require(flow.num_vcs == fast.num_vcs &&
                flow.max_vcs_per_link == fast.max_vcs_per_link,
            "flow tier VC accounting diverges from the cycle engine");
    const double bound = pfar::model::allreduce_rate_upper_bound(g, 1.0);
    const double alg1 = plan.aggregate_bandwidth();
    require(flow.aggregate_bandwidth > 0.0 &&
                flow.aggregate_bandwidth <= alg1 + 1e-9 &&
                flow.aggregate_bandwidth <= bound + 1e-9,
            "flow sim_bw " + str(flow.aggregate_bandwidth) +
                " outside (0, min(alg1 " + str(alg1) + ", bound " +
                str(bound) + ")]");
    const double rel = (fast.aggregate_bandwidth - flow.aggregate_bandwidth) /
                       fast.aggregate_bandwidth;
    require(rel > -0.02 && rel < 0.02,
            "flow sim_bw " + str(flow.aggregate_bandwidth) +
                " drifts >2% from cycle sim_bw " +
                str(fast.aggregate_bandwidth));
    return "flow sim_bw " + str(flow.aggregate_bandwidth) + " vs cycle " +
           str(fast.aggregate_bandwidth) + ", alg1 " + str(alg1) +
           ", upper bound " + str(bound);
  });

  run_check(out, "serialize.roundtrip", [&] {
    const std::string text = pfar::core::serialize_plan(plan, starter);
    const auto parsed = pfar::core::parse_plan(text);
    require(parsed.plan.q() == q, "round trip changed q");
    require(parsed.plan.solution() == plan.solution(),
            "round trip changed solution");
    require(parsed.starter == starter, "round trip changed starter");
    require(parsed.plan.num_trees() == plan.num_trees(),
            "round trip changed tree count");
    for (int i = 0; i < plan.num_trees(); ++i) {
      const auto& a = trees[static_cast<std::size_t>(i)];
      const auto& b = parsed.plan.trees()[static_cast<std::size_t>(i)];
      require(a.root() == b.root() && a.parents() == b.parents(),
              "round trip changed tree " + str(i));
    }
    const std::string again =
        pfar::core::serialize_plan(parsed.plan, parsed.starter);
    require(again == text, "re-serialization is not byte-identical");
    return str(text.size()) + " bytes, byte-exact round trip";
  });
}

// ---------------------------------------------------------------------------
// Fault-resilience checks (--faults): the runtime fault-injection layer and
// the recovery driver, audited on the low-depth plan for this q. These
// mirror tests/fault_injection_test.cpp so a deployed binary can re-verify
// the resilience claims without the test tree.
// ---------------------------------------------------------------------------

void check_faults(std::vector<Check>& out, const AllreducePlan& plan) {
  const auto& g = plan.topology();

  // An uplink tree 0 actually uses: downing it is guaranteed to hurt.
  const auto victim = [&plan]() -> pfar::graph::Edge {
    const auto& parents = plan.trees()[0].parents();
    for (int v = 0; v < static_cast<int>(parents.size()); ++v) {
      const int p = parents[static_cast<std::size_t>(v)];
      if (p >= 0) return pfar::graph::Edge(v, p);
    }
    throw Violation("tree 0 has no edges");
  }();

  const auto faulted_config = [&victim] {
    pfar::simnet::SimConfig cfg;
    cfg.progress_timeout = 800;
    cfg.faults.events.push_back(
        {200, victim.u, victim.v, pfar::simnet::FaultType::kLinkDown});
    return cfg;
  };

  // The ceiling of any plan's aggregate on this topology (unit links). Not
  // the healthy plan's aggregate: the low-depth plans are not optimal (an
  // even q carries (q-1)B/2 of the optimal (q+1)B/2), so a repack may beat
  // them.
  const double ceiling = pfar::model::allreduce_rate_upper_bound(g, 1.0);

  const auto run_faulted = [&] {
    pfar::simnet::AllreduceSimulator sim(g, plan.trees(), faulted_config());
    return sim.run(plan.split(1500));
  };

  run_check(out, "faults.differential", [&] {
    // The simulator against the reference oracle (tests/oracle): every
    // SimResult field of the fault-injected run must agree.
    const auto ref = pfar::oracle::run_reference_allreduce(
        g, plan.trees(), faulted_config(), plan.split(1500));
    const auto diffs = pfar::oracle::result_differences(run_faulted(), ref);
    if (!diffs.empty()) {
      throw Violation("simulator diverges from the oracle: " + diffs.front());
    }
    return "fault-injected run bit-identical to the reference oracle, " +
           str(ref.cycles) + " cycles";
  });

  run_check(out, "faults.drop_accounting", [&] {
    const auto res = run_faulted();
    long long per_link = 0;
    for (const long long d : res.link_dropped_flits) {
      require(d >= 0, "negative per-link drop count");
      per_link += d;
    }
    require(per_link == res.dropped_flits,
            "per-link drops " + str(per_link) + " != total " +
                str(res.dropped_flits));
    require(res.values_correct, "a corrupt value reached a root");
    int failed_trees = 0;
    for (const char f : res.tree_failed) failed_trees += f ? 1 : 0;
    require(failed_trees >= 1, "no tree detected the scripted failure");
    require(res.links_down.size() == 1 && res.links_down[0] == victim,
            "links_down does not record the scripted failure");
    return str(res.dropped_flits) + " in-flight flits dropped, " +
           str(failed_trees) + " trees failed, all accounted";
  });

  run_check(out, "faults.recovery_single_link", [&] {
    const auto stats = pfar::collectives::run_resilient_allreduce(
        g, plan.trees(), 1500, faulted_config());
    require(stats.recovered, "driver did not recover");
    require(stats.values_correct, "recovered values are not exact");
    require(stats.attempts >= 2, "no replay attempt was needed?");
    require(stats.detection_cycle >= 200,
            "detection cycle " + str(stats.detection_cycle) +
                " precedes the fault");
    require(stats.chunks_replayed > 0, "nothing was replayed");
    require(stats.failed_links.size() == 1 && stats.failed_links[0] == victim,
            "failed-link attribution is wrong");
    require(stats.degraded_aggregate_bandwidth > 0.0 &&
                stats.degraded_aggregate_bandwidth <= ceiling + 1e-9,
            "degraded bandwidth outside (0, " + str(ceiling) + "]");
    return "recovered in " + str(stats.attempts) + " attempts, " +
           str(stats.chunks_replayed) + " chunks replayed, detected at cycle " +
           str(stats.detection_cycle);
  });

  run_check(out, "faults.degradation_bounded", [&] {
    // Greedy repack is not strictly monotone in the failure count (removing
    // an edge can redirect the greedy packing to a better solution), but it
    // must stay within (0, ceiling] on every accumulated failure set.
    std::vector<pfar::graph::Edge> failed;
    double floor = ceiling;
    for (int i = 0; i < 4; ++i) {
      failed.push_back(g.edge((i * 23 + 5) % g.num_edges()));
      std::sort(failed.begin(), failed.end());
      failed.erase(std::unique(failed.begin(), failed.end()), failed.end());
      const auto degraded = pfar::core::degrade_repack(g, failed);
      require(degraded.bandwidths.aggregate <= ceiling + 1e-9,
              "repack bandwidth exceeds the topology's ceiling after "
              "failure " + str(i));
      require(degraded.bandwidths.aggregate > 0.0,
              "repack bandwidth collapsed to zero");
      floor = std::min(floor, degraded.bandwidths.aggregate);
    }
    return "repack aggregate within (0, " + str(ceiling) + "] over " +
           str(failed.size()) + " accumulated failures, floor " + str(floor);
  });
}

// ---------------------------------------------------------------------------
// JSON report.
// ---------------------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char raw : s) {
    const unsigned char c = static_cast<unsigned char>(raw);
    switch (raw) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

void write_json(std::ostream& os, const std::vector<Report>& reports) {
  int passed = 0, failed = 0;
  for (const auto& r : reports) {
    for (const auto& c : r.checks) (c.pass ? passed : failed) += 1;
  }
  os << "{\n";
  os << "  \"tool\": \"pfar_audit\",\n";
  os << "  \"builder\": \"" << pfar::core::kBuilderVersion << "\",\n";
  os << "  \"reports\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const auto& r = reports[i];
    os << "    {\n";
    os << "      \"solution\": \"" << json_escape(r.solution) << "\",\n";
    os << "      \"q\": " << r.q << ",\n";
    os << "      \"starter\": " << r.starter << ",\n";
    os << "      \"checks\": [\n";
    for (std::size_t j = 0; j < r.checks.size(); ++j) {
      const auto& c = r.checks[j];
      os << "        {\"name\": \"" << json_escape(c.name) << "\", \"pass\": "
         << (c.pass ? "true" : "false") << ", \"detail\": \""
         << json_escape(c.detail) << "\"}"
         << (j + 1 < r.checks.size() ? "," : "") << "\n";
    }
    os << "      ]\n";
    os << "    }" << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  os << "  ],\n";
  os << "  \"passed\": " << passed << ",\n";
  os << "  \"failed\": " << failed << ",\n";
  os << "  \"ok\": " << (failed == 0 ? "true" : "false") << "\n";
  os << "}\n";
}

void usage() {
  std::cerr
      << "pfar_audit: invariant audit for PolarFly Allreduce plans\n\n"
         "  pfar_audit --q N [--solution low-depth|edge-disjoint|"
         "single-tree|all]\n"
         "             [--starter I] [--threads T] [--faults] [--out FILE]\n"
         "  pfar_audit --plan FILE [--out FILE]\n\n"
         "Exit status: 0 all checks passed, 1 violations found, "
         "2 usage/IO error.\n";
}

}  // namespace

int main(int argc, char** argv) {
  const pfar::util::Args args(argc, argv,
      {"q", "solution", "starter", "plan", "faults", "out", "threads", "help"});
  if (args.has("help")) {
    usage();
    return 0;
  }

  // Contract violations raised while building or auditing become ordinary
  // exceptions, so they are reported as named failed checks instead of
  // aborting the audit run half way.
  const pfar::util::contracts::ScopedThrowHandler throw_on_violation;

  std::vector<Report> reports;

  if (args.has("plan")) {
    const std::string path = args.get_string("plan", "");
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::cerr << "pfar_audit: cannot open " << path << "\n";
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();

    Report r;
    r.solution = "plan-file";
    bool parsed_ok = false;
    pfar::core::ParsedPlan parsed;
    run_check(r.checks, "serialize.parse", [&] {
      parsed = pfar::core::parse_plan(buf.str());
      parsed_ok = true;
      return "checksum verified, " + str(parsed.plan.num_trees()) +
             " trees for q = " + str(parsed.plan.q());
    });
    if (parsed_ok) {
      r.solution = solution_flag(parsed.plan.solution());
      r.q = parsed.plan.q();
      r.starter = parsed.starter;
      check_plan(r.checks, parsed.plan, parsed.starter);
    }
    reports.push_back(std::move(r));
  } else if (args.has("q")) {
    const int q = static_cast<int>(args.get_int("q", 0));
    const int starter = static_cast<int>(args.get_int("starter", 0));
    const int threads = args.threads();
    const std::string want = args.get_string("solution", "all");

    std::vector<Solution> solutions;
    if (want == "all") {
      solutions = {Solution::kLowDepth, Solution::kEdgeDisjoint,
                   Solution::kSingleTree};
    } else if (want == "low-depth") {
      solutions = {Solution::kLowDepth};
    } else if (want == "edge-disjoint") {
      solutions = {Solution::kEdgeDisjoint};
    } else if (want == "single-tree") {
      solutions = {Solution::kSingleTree};
    } else {
      std::cerr << "pfar_audit: unknown --solution '" << want << "'\n";
      usage();
      return 2;
    }

    {
      Report design;
      design.solution = "design-point";
      design.q = q;
      design.starter = starter;
      check_table1(design.checks, q);
      reports.push_back(std::move(design));
    }

    for (Solution s : solutions) {
      Report r;
      r.solution = solution_flag(s);
      r.q = q;
      r.starter = starter;
      bool built = false;
      AllreducePlan plan;
      run_check(r.checks, "planner.build", [&] {
        plan = pfar::core::AllreducePlanner(q)
                   .solution(s)
                   .starter_quadric(starter)
                   .threads(threads)
                   .build();
        built = true;
        return str(plan.num_trees()) + " trees built";
      });
      if (built) check_plan(r.checks, plan, starter);
      reports.push_back(std::move(r));
    }

    if (args.has("faults")) {
      // Runtime fault-injection + recovery audit on the low-depth plan.
      Report r;
      r.solution = "faults";
      r.q = q;
      r.starter = starter;
      bool built = false;
      AllreducePlan plan;
      run_check(r.checks, "planner.build", [&] {
        plan = pfar::core::AllreducePlanner(q)
                   .starter_quadric(starter)
                   .threads(threads)
                   .build();
        built = true;
        return str(plan.num_trees()) + " trees built";
      });
      if (built) check_faults(r.checks, plan);
      reports.push_back(std::move(r));
    }
  } else {
    usage();
    return 2;
  }

  int failed = 0;
  for (const auto& r : reports) failed += r.failed();

  if (args.has("out")) {
    std::ofstream out(args.get_string("out", ""));
    if (!out) {
      std::cerr << "pfar_audit: cannot write --out file\n";
      return 2;
    }
    write_json(out, reports);
  } else {
    write_json(std::cout, reports);
  }
  return failed == 0 ? 0 : 1;
}
