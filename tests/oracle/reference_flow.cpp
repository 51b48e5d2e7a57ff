// The flow tier (SimEngine::kFlow) as first written, less the settings the
// product dropped: tree-major
// edge resolution through Graph::edge_id, per-call user counts rebuilt
// from the per-tree link lists, and every freeze's fix-ups applied in
// order inside its progressive-filling round. The product tier
// (src/simnet/flow_sim.cpp) must return a bit-identical SimResult for
// every input; tests/flow_oracle_test.cpp checks that.
#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/congestion_model.hpp"
#include "obsv/recorder.hpp"
#include "oracle/reference_allreduce.hpp"
#include "simnet/background.hpp"
#include "simnet/sim_internal.hpp"

namespace pfar::oracle {

using namespace simnet;

namespace {

// Depth (hops from the root) of every node of one tree, by memoized
// parent-chain walking; returns the tree depth (deepest node).
int tree_depth(const std::vector<int>& parent, int root, int n,
               std::vector<int>& depth_scratch) {
  std::vector<int>& depth = depth_scratch;
  depth.assign(static_cast<std::size_t>(n), -1);
  depth[static_cast<std::size_t>(root)] = 0;
  int deepest = 0;
  std::vector<int> chain;
  for (int v = 0; v < n; ++v) {
    int u = v;
    chain.clear();
    while (depth[static_cast<std::size_t>(u)] < 0) {
      chain.push_back(u);
      u = parent[static_cast<std::size_t>(u)];
      if (u < 0) {
        throw std::invalid_argument("flow tier: node with no path to root");
      }
    }
    int d = depth[static_cast<std::size_t>(u)];
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      depth[static_cast<std::size_t>(*it)] = ++d;
    }
    deepest = std::max(deepest, d);
  }
  return deepest;
}

}  // namespace

SimResult run_reference_flow(const graph::Graph& topology,
                             const std::vector<trees::SpanningTree>& trees,
                             const SimConfig& config,
                             const std::vector<long long>& elements_per_tree) {
  if (!config.faults.empty()) {
    const std::size_t events = config.faults.events.size();
    throw std::invalid_argument(
        "SimEngine::kFlow cannot honor fault scripts (faults are cycle-level "
        "phenomena); offending SimConfig field: faults.events (" +
        std::to_string(events) + " scheduled link event" +
        (events == 1 ? "" : "s") + "); clear it or use the horizon engine");
  }
  const int n = topology.num_vertices();
  const int num_trees = static_cast<int>(trees.size());
  const int num_dlinks = 2 * topology.num_edges();

  SimResult result;
  detail::reset_result(result, num_trees, num_dlinks);

  const auto dlink_of = [&](int src, int dst) {
    return 2 * topology.edge_id(src, dst) + (src > dst ? 1 : 0);
  };

  // Structural pass: the VC each tree would place on each directed link.
  // Exactly build_fabric's VC population (same order), without the rest
  // of the fabric —
  // num_vcs and the per-link / per-port maxima come out identical to the
  // cycle engines (pinned by tests/flow_engine_test.cpp).
  const int vcs_per_tree = 2 * (n - 1);
  std::vector<std::int64_t> tree_dlink_base(
      static_cast<std::size_t>(num_trees) + 1, 0);
  for (int t = 0; t < num_trees; ++t) {
    tree_dlink_base[static_cast<std::size_t>(t) + 1] =
        tree_dlink_base[static_cast<std::size_t>(t)] + vcs_per_tree;
  }
  std::vector<std::int32_t> tree_dlinks(
      static_cast<std::size_t>(tree_dlink_base[static_cast<std::size_t>(num_trees)]));
  std::vector<std::int32_t> vcs_on_dlink(static_cast<std::size_t>(num_dlinks),
                                         0);
  std::vector<std::int32_t> reduces_on_dlink(
      static_cast<std::size_t>(num_dlinks), 0);
  std::vector<int> depth(static_cast<std::size_t>(num_trees), 0);
  std::vector<int> depth_scratch;
  for (int t = 0; t < num_trees; ++t) {
    const auto& tree = trees[static_cast<std::size_t>(t)];
    depth[static_cast<std::size_t>(t)] =
        tree_depth(tree.parents(), tree.root(), n, depth_scratch);
    std::int64_t out = tree_dlink_base[static_cast<std::size_t>(t)];
    for (int v = 0; v < n; ++v) {
      const int p = tree.parent(v);
      if (p < 0) continue;
      const int up = dlink_of(v, p);
      tree_dlinks[static_cast<std::size_t>(out++)] =
          static_cast<std::int32_t>(up);
      ++vcs_on_dlink[static_cast<std::size_t>(up)];
      ++reduces_on_dlink[static_cast<std::size_t>(up)];
      const int down = dlink_of(p, v);
      tree_dlinks[static_cast<std::size_t>(out++)] =
          static_cast<std::int32_t>(down);
      ++vcs_on_dlink[static_cast<std::size_t>(down)];
    }
  }
  result.num_vcs = static_cast<int>(
      static_cast<long long>(vcs_per_tree) * num_trees);
  for (int d = 0; d < num_dlinks; ++d) {
    result.max_vcs_per_link =
        std::max(result.max_vcs_per_link,
                 static_cast<int>(vcs_on_dlink[static_cast<std::size_t>(d)]));
    result.max_reductions_per_input_port = std::max(
        result.max_reductions_per_input_port,
        static_cast<int>(reduces_on_dlink[static_cast<std::size_t>(d)]));
  }

  // Exact flit accounting: every VC of tree t carries its full stream once
  // — m_t payload flits plus one header per packet — exactly as in the
  // cycle engines.
  const int header = config.packet_header_flits;
  const int payload = config.packet_payload;
  long long total_target = 0;
  for (int t = 0; t < num_trees; ++t) {
    const long long m = elements_per_tree[static_cast<std::size_t>(t)];
    if (m < 0) throw std::invalid_argument("run: negative element count");
    result.total_elements += m;
    total_target += m;
    result.tree_completed[static_cast<std::size_t>(t)] = m;
    if (m == 0) continue;
    const long long flits = m + (m + payload - 1) / payload * header;
    for (std::int64_t i = tree_dlink_base[static_cast<std::size_t>(t)];
         i < tree_dlink_base[static_cast<std::size_t>(t) + 1]; ++i) {
      result.link_flits[static_cast<std::size_t>(
          tree_dlinks[static_cast<std::size_t>(i)])] += flits;
    }
  }
  if (total_target == 0) return result;

  // --- Measure phase: fluid timeline. Each active tree streams at its
  // max-min fair flit rate (progressive filling: all rates rise together,
  // a saturated link freezes the trees crossing it, the rest continue on
  // the residual capacity — the fluid limit of the engines' round-robin
  // link arbitration). When a tree runs out of elements it retires and the
  // survivors' rates are recomputed on the freed links. A link moves one
  // flit per cycle.
  const double efficiency =
      static_cast<double>(payload) / static_cast<double>(payload + header);
  // Background traffic (SimConfig::background) occupies part of each
  // directed link's capacity: the fluid limit of the cycle engines'
  // deterministic drain is simply a per-link capacity reduction by the
  // steady-state rate. On a quiet network every entry equals 1 exactly, so
  // the floating-point trajectory below is bit-identical to the
  // pre-background flow tier.
  std::vector<long long> bg_rates_ppm;
  if (config.background.active()) {
    result.link_bg_flits.assign(static_cast<std::size_t>(num_dlinks), 0);
    bg_rates_ppm = background_link_rates_ppm(topology, config.background);
  }
  std::vector<double> cap(static_cast<std::size_t>(num_dlinks), 1.0);
  if (!bg_rates_ppm.empty()) {
    for (int d = 0; d < num_dlinks; ++d) {
      cap[static_cast<std::size_t>(d)] =
          1.0 -
          static_cast<double>(bg_rates_ppm[static_cast<std::size_t>(d)]) / 1e6;
    }
  }
  std::vector<std::int32_t> users(static_cast<std::size_t>(num_dlinks), 0);
  std::vector<double> fixed_load(static_cast<std::size_t>(num_dlinks), 0.0);
  std::vector<std::int32_t> touched;
  std::vector<char> done;
  const auto maxmin_rates = [&](const std::vector<int>& act,
                                std::vector<double>& rate) {
    touched.clear();
    for (int t : act) {
      for (std::int64_t i = tree_dlink_base[static_cast<std::size_t>(t)];
           i < tree_dlink_base[static_cast<std::size_t>(t) + 1]; ++i) {
        const std::int32_t d = tree_dlinks[static_cast<std::size_t>(i)];
        if (users[static_cast<std::size_t>(d)]++ == 0) touched.push_back(d);
      }
    }
    done.assign(act.size(), 0);
    int remaining = static_cast<int>(act.size());
    // A tree with no links (single-node topology) streams at link rate.
    for (std::size_t i = 0; i < act.size(); ++i) {
      const int t = act[i];
      if (tree_dlink_base[static_cast<std::size_t>(t)] ==
          tree_dlink_base[static_cast<std::size_t>(t) + 1]) {
        rate[static_cast<std::size_t>(t)] = 1.0;
        done[i] = 1;
        --remaining;
      }
    }
    double level = 0.0;
    const double eps = 1e-9;
    while (remaining > 0) {
      double delta = std::numeric_limits<double>::infinity();
      for (std::int32_t d : touched) {
        const std::size_t di = static_cast<std::size_t>(d);
        if (users[di] == 0) continue;
        delta = std::min(delta, (cap[di] - fixed_load[di]) /
                                        static_cast<double>(users[di]) -
                                    level);
      }
      level += std::max(delta, 0.0);
      int fixed_this_round = 0;
      for (std::size_t i = 0; i < act.size(); ++i) {
        if (done[i]) continue;
        const int t = act[i];
        bool saturated = false;
        for (std::int64_t k = tree_dlink_base[static_cast<std::size_t>(t)];
             k < tree_dlink_base[static_cast<std::size_t>(t) + 1]; ++k) {
          const std::size_t di = static_cast<std::size_t>(
              tree_dlinks[static_cast<std::size_t>(k)]);
          if (cap[di] - fixed_load[di] -
                  level * static_cast<double>(users[di]) <=
              eps * static_cast<double>(users[di])) {
            saturated = true;
            break;
          }
        }
        if (!saturated) continue;
        done[i] = 1;
        --remaining;
        ++fixed_this_round;
        rate[static_cast<std::size_t>(t)] = level;
        for (std::int64_t k = tree_dlink_base[static_cast<std::size_t>(t)];
             k < tree_dlink_base[static_cast<std::size_t>(t) + 1]; ++k) {
          const std::size_t di = static_cast<std::size_t>(
              tree_dlinks[static_cast<std::size_t>(k)]);
          --users[di];
          fixed_load[di] += level;
        }
      }
      if (fixed_this_round == 0) {
        // Numerical fallback: freeze everything left at the current level.
        for (std::size_t i = 0; i < act.size(); ++i) {
          if (!done[i]) rate[static_cast<std::size_t>(act[i])] = level;
        }
        remaining = 0;
      }
    }
    for (std::int32_t d : touched) {
      users[static_cast<std::size_t>(d)] = 0;
      fixed_load[static_cast<std::size_t>(d)] = 0.0;
    }
  };

  std::vector<double> rate(static_cast<std::size_t>(num_trees), 0.0);
  std::vector<double> rem(static_cast<std::size_t>(num_trees), 0.0);
  std::vector<double> stream_end(static_cast<std::size_t>(num_trees), 0.0);
  std::vector<int> active, still_active;
  for (int t = 0; t < num_trees; ++t) {
    const long long m = elements_per_tree[static_cast<std::size_t>(t)];
    if (m > 0) {
      rem[static_cast<std::size_t>(t)] = static_cast<double>(m);
      active.push_back(t);
    }
  }
  double clock = 0.0;
  while (!active.empty()) {
    maxmin_rates(active, rate);
    double dt = std::numeric_limits<double>::infinity();
    for (int t : active) {
      dt = std::min(dt, rem[static_cast<std::size_t>(t)] /
                            (rate[static_cast<std::size_t>(t)] * efficiency));
    }
    still_active.clear();
    for (int t : active) {
      const std::size_t ti = static_cast<std::size_t>(t);
      const double need = rem[ti] / (rate[ti] * efficiency);
      if (need <= dt * (1.0 + 1e-12)) {
        stream_end[ti] = clock + need;  // retired: stream fully injected
      } else {
        rem[ti] -= rate[ti] * efficiency * dt;
        still_active.push_back(t);
      }
    }
    clock += dt;
    active.swap(still_active);
  }

  // --- Warmup + drain: at full pipeline the per-hop lead of a packet is
  // the wire latency (serialization of the next hop overlaps it; the
  // engines forward an arrival in the same cycle it lands), never less
  // than one cycle. The stream tail therefore drains through `depth` hops
  // per phase after the last element leaves the injection frontier, plus
  // one root-turnaround cycle; the first element shows the same per-hop
  // lead on its way to the root.
  const long long hop_lead =
      static_cast<long long>(std::max(config.link_latency, 1));
  for (int t = 0; t < num_trees; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    if (elements_per_tree[ti] == 0) continue;
    const long long fill = static_cast<long long>(depth[ti]) * hop_lead * 2;
    const long long finish =
        static_cast<long long>(std::ceil(stream_end[ti])) + fill + 1;
    result.tree_finish_cycle[ti] = finish;
    result.tree_first_delivery[ti] =
        static_cast<long long>(depth[ti]) * hop_lead;
    result.cycles = std::max(result.cycles, finish);
  }
  if (result.cycles > config.max_cycles) {
    throw std::runtime_error("AllreduceSimulator: cycle limit exceeded");
  }
  result.aggregate_bandwidth = static_cast<double>(result.total_elements) /
                               static_cast<double>(result.cycles);
  if (!bg_rates_ppm.empty()) {
    // Same closed form the cycle engine telescopes to (background.hpp).
    detail::settle_background(result, bg_rates_ppm, result.cycles);
  }


  // Flow-tier observability: the run-level metrics the report renders,
  // including the Zhou & Sun rate bound as the optimality yardstick.
  if constexpr (obsv::kTraceCompiled) {
    if (config.recorder != nullptr) {
      obsv::Recorder* rec = config.recorder;
      obsv::Metrics& m = rec->metrics;
      m.hwm("sim.cycles", result.cycles);
      m.add("sim.total_elements", result.total_elements);
      m.observe("flow.sim_bw", result.aggregate_bandwidth);
      m.observe("flow.rate_upper_bound",
                model::allreduce_rate_upper_bound(topology, 1.0));
      rec->trace.name_track(obsv::kTrackSim, "sim");
      const std::uint32_t n_flow = rec->trace.intern("flow");
      for (int t = 0; t < num_trees; ++t) {
        const std::size_t ti = static_cast<std::size_t>(t);
        const std::uint32_t track =
            obsv::kTrackTreeBase + static_cast<std::uint32_t>(t);
        rec->trace.name_track(track, "tree " + std::to_string(t));
        const std::string prefix = "tree." + std::to_string(t);
        m.hwm(prefix + ".finish_cycle", result.tree_finish_cycle[ti]);
        if (result.tree_first_delivery[ti] >= 0) {
          m.hwm(prefix + ".first_delivery", result.tree_first_delivery[ti]);
          rec->trace.complete(
              result.tree_first_delivery[ti],
              result.tree_finish_cycle[ti] - result.tree_first_delivery[ti] +
                  1,
              n_flow, track);
        }
        m.add(prefix + ".completed", result.tree_completed[ti]);
      }
    }
  }
  return result;
}

}  // namespace pfar::oracle
