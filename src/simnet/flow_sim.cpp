#include "simnet/flow_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "model/congestion_model.hpp"
#include "obsv/recorder.hpp"
#include "simnet/background.hpp"
#include "simnet/sim_internal.hpp"
#include "util/contracts.hpp"

namespace pfar::simnet {
namespace detail {

bool flow_fixups_are_deferrable(double cap, double level, std::int32_t users,
                                double eps) {
  PFAR_REQUIRE(users >= 1, users);
  const bool at_start = flow_link_saturated(cap, 0.0, level, users, eps);
  double fixed = 0.0;
  for (std::int32_t j = 1; j < users; ++j) {
    fixed += level;
    if (flow_link_saturated(cap, fixed, level, users - j, eps) != at_start) {
      return false;
    }
  }
  return true;
}

}  // namespace detail

// pfar-lint: allow(contract-coverage) fault-script validation happens via the std::invalid_argument throws below (tests/flow_engine_test.cpp pins the messages); the trees' fit to the topology arrives validated by detail::validate_simulation, their shape by SpanningTree's constructor
SimResult run_flow_allreduce(const graph::Graph& topology,
                             const std::vector<trees::SpanningTree>& trees,
                             const std::vector<int>& links,
                             const SimConfig& config,
                             const std::vector<long long>& elements_per_tree) {
  if (!config.faults.empty()) {
    // The message names the offending SimConfig field so the caller knows
    // exactly what to clear (tests/flow_engine_test.cpp).
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

  // Exact flit accounting: every VC of tree t carries its full stream once
  // — m_t payload flits plus one header per packet — exactly as in the
  // cycle engines.
  const int header = config.packet_header_flits;
  const int payload = config.packet_payload;
  long long total_target = 0;
  std::vector<long long> tree_flits(static_cast<std::size_t>(num_trees), 0);
  for (int t = 0; t < num_trees; ++t) {
    const long long m = elements_per_tree[static_cast<std::size_t>(t)];
    if (m < 0) throw std::invalid_argument("run: negative element count");
    result.total_elements += m;
    total_target += m;
    result.tree_completed[static_cast<std::size_t>(t)] = m;
    if (m > 0) {
      tree_flits[static_cast<std::size_t>(t)] =
          m + (m + payload - 1) / payload * header;
    }
  }

  // Structural pass: the VC each tree would place on each directed link.
  // Exactly build_fabric's VC population (same order), without the rest
  // of the fabric — num_vcs and the per-link / per-port maxima come out
  // identical to the cycle engines (pinned by tests/flow_engine_test.cpp).
  //
  // The edge id e of v's parent edge in tree t is links[t * n + v] (-1 at
  // the root), and it names both directed links as 2e + (src > dst).
  // Walking the table in order visits VCs in build_fabric's order.
  // Only the child-to-parent direction is counted here (VCs in
  // vcs_on_dlink, flits in link_flits); both directions of an edge are
  // derived from it below, on one cache line.
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
  {
    std::size_t out = 0;
    for (int t = 0; t < num_trees; ++t) {
      const auto& parent = trees[static_cast<std::size_t>(t)].parents();
      const std::size_t base =
          static_cast<std::size_t>(t) * static_cast<std::size_t>(n);
      for (int v = 0; v < n; ++v) {
        const int id = links[base + static_cast<std::size_t>(v)];
        if (id < 0) continue;  // the root
        const auto up = static_cast<std::int32_t>(
            2 * id + (v > parent[static_cast<std::size_t>(v)] ? 1 : 0));
        tree_dlinks[out++] = up;
        tree_dlinks[out++] = up ^ 1;
        ++vcs_on_dlink[static_cast<std::size_t>(up)];
        result.link_flits[static_cast<std::size_t>(up)] +=
            tree_flits[static_cast<std::size_t>(t)];
      }
    }
    // One root per validated tree: every VC slot was filled exactly once.
    PFAR_ENSURE(out == tree_dlinks.size(), out, tree_dlinks.size());
  }
  result.num_vcs = static_cast<int>(
      static_cast<long long>(vcs_per_tree) * num_trees);
  // Per edge: a reduce VC runs child -> parent, a broadcast VC parent ->
  // child, so both directions of an edge carry the reduces of their own
  // child count plus the broadcasts of the reverse's: the same VCs and
  // flits. Every link with a VC is also listed in `touched`, ascending: the
  // first max-min call starts from these counts.
  std::vector<std::int32_t> touched;
  touched.reserve(static_cast<std::size_t>(num_dlinks));
  for (int d = 0; d < num_dlinks; d += 2) {
    const std::size_t lo = static_cast<std::size_t>(d);
    const std::size_t hi = lo + 1;
    const std::int32_t child_lo = vcs_on_dlink[lo];
    const std::int32_t child_hi = vcs_on_dlink[hi];
    result.max_reductions_per_input_port =
        std::max({result.max_reductions_per_input_port,
                  static_cast<int>(child_lo), static_cast<int>(child_hi)});
    vcs_on_dlink[lo] = vcs_on_dlink[hi] = child_lo + child_hi;
    result.link_flits[lo] = result.link_flits[hi] =
        result.link_flits[lo] + result.link_flits[hi];
    for (const std::size_t di : {lo, hi}) {
      result.max_vcs_per_link = std::max(
          result.max_vcs_per_link, static_cast<int>(vcs_on_dlink[di]));
      if (vcs_on_dlink[di] > 0) {
        touched.push_back(static_cast<std::int32_t>(di));
      }
    }
  }
  if (total_target == 0) return result;

  // --- Measure phase: fluid timeline. Each active tree streams at its
  // max-min fair flit rate (progressive filling: all rates rise together,
  // a saturated link freezes the trees crossing it, the rest continue on
  // the residual capacity — the fluid limit of the engines' round-robin
  // link arbitration). When a tree runs out of elements it retires and the
  // survivors' rates are recomputed on the freed links. Rates are in flits
  // per cycle, and a link moves one flit per cycle.
  const double efficiency =
      static_cast<double>(payload) / static_cast<double>(payload + header);
  // Background traffic (SimConfig::background) occupies part of each
  // directed link's capacity: the fluid limit of the cycle engines'
  // deterministic drain is simply a per-link capacity reduction by the
  // steady-state rate. On a quiet network `cap` stays empty and every link
  // has capacity 1 exactly, so the floating-point trajectory below is
  // bit-identical to the pre-background flow tier.
  std::vector<long long> bg_rates_ppm;
  if (config.background.active()) {
    result.link_bg_flits.assign(static_cast<std::size_t>(num_dlinks), 0);
    bg_rates_ppm = background_link_rates_ppm(topology, config.background);
  }
  std::vector<double> cap;
  if (!bg_rates_ppm.empty()) {
    cap.resize(static_cast<std::size_t>(num_dlinks));
    for (int d = 0; d < num_dlinks; ++d) {
      cap[static_cast<std::size_t>(d)] =
          1.0 -
          static_cast<double>(bg_rates_ppm[static_cast<std::size_t>(d)]) / 1e6;
    }
  }
  const auto cap_of = [&](std::size_t di) {
    return cap.empty() ? 1.0 : cap[di];
  };

  // Fill state between max-min calls. users[d] counts the VCs on d of the
  // trees a call has not frozen yet; `touched` lists every link a call's
  // trees use. The first call starts from the structural counts less the
  // empty trees' (`users_seeded`); every later call rebuilds them from
  // its trees. users and fixed_load (the frozen trees' rate on each link,
  // empty until the first fix-up) are all zero between calls.
  std::vector<std::int32_t> users = std::move(vcs_on_dlink);
  bool users_seeded = true;
  std::vector<double> fixed_load;
  const auto fixed_of = [&](std::size_t di) {
    return fixed_load.empty() ? 0.0 : fixed_load[di];
  };
  std::vector<char> done;
  // A class round's state, indexed by a link's user count: which counts
  // occur among the touched links and whether such a link is saturated.
  const std::size_t num_classes =
      static_cast<std::size_t>(result.max_vcs_per_link) + 1;
  std::vector<char> class_present, class_saturated;
  std::vector<int> frozen;
  const auto freeze_links = [&](int t, double level) {
    if (fixed_load.empty()) {
      fixed_load.assign(static_cast<std::size_t>(num_dlinks), 0.0);
    }
    for (std::int64_t k = tree_dlink_base[static_cast<std::size_t>(t)];
         k < tree_dlink_base[static_cast<std::size_t>(t) + 1]; ++k) {
      const std::size_t di =
          static_cast<std::size_t>(tree_dlinks[static_cast<std::size_t>(k)]);
      --users[di];
      fixed_load[di] += level;
    }
  };
  const auto maxmin_rates = [&](const std::vector<int>& act,
                                std::vector<double>& rate) {
    if (users_seeded) {
      users_seeded = false;
    } else {
      touched.clear();
      for (int t : act) {
        for (std::int64_t i = tree_dlink_base[static_cast<std::size_t>(t)];
             i < tree_dlink_base[static_cast<std::size_t>(t) + 1]; ++i) {
          const std::int32_t d = tree_dlinks[static_cast<std::size_t>(i)];
          if (users[static_cast<std::size_t>(d)]++ == 0) touched.push_back(d);
        }
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
    bool fixups_applied = false;
    // The first round on a quiet network is a class round: every link
    // starts with capacity 1 and zero fixed load, so its user count alone
    // sets its share and its saturation.
    bool class_round = cap.empty();
    while (remaining > 0) {
      double delta = std::numeric_limits<double>::infinity();
      if (class_round) {
        class_present.assign(num_classes, 0);
        for (std::int32_t d : touched) {
          class_present[static_cast<std::size_t>(
              users[static_cast<std::size_t>(d)])] = 1;
        }
        // The per-link share (cap - fixed) / users - level, with
        // cap = 1 and fixed = level = 0: equal bit for bit.
        for (std::size_t u = 1; u < num_classes; ++u) {
          if (class_present[u]) {
            delta = std::min(delta, 1.0 / static_cast<double>(u));
          }
        }
      } else {
        for (std::int32_t d : touched) {
          const std::size_t di = static_cast<std::size_t>(d);
          if (users[di] == 0) continue;
          delta = std::min(delta, (cap_of(di) - fixed_of(di)) /
                                          static_cast<double>(users[di]) -
                                      level);
        }
      }
      level += std::max(delta, 0.0);
      // A class round defers its fix-ups iff no class's saturation can
      // change under them; its frozen set then depends on the start state
      // only.
      bool deferred = class_round;
      if (class_round) {
        class_round = false;
        class_saturated.assign(num_classes, 0);
        for (std::size_t u = 1; u < num_classes; ++u) {
          if (!class_present[u]) continue;
          const auto users_u = static_cast<std::int32_t>(u);
          class_saturated[u] =
              detail::flow_link_saturated(1.0, 0.0, level, users_u, eps)
                  ? 1
                  : 0;
          deferred = deferred && detail::flow_fixups_are_deferrable(
                                     1.0, level, users_u, eps);
        }
      }
      int fixed_this_round = 0;
      frozen.clear();
      for (std::size_t i = 0; i < act.size(); ++i) {
        if (done[i]) continue;
        const int t = act[i];
        bool saturated = false;
        for (std::int64_t k = tree_dlink_base[static_cast<std::size_t>(t)];
             k < tree_dlink_base[static_cast<std::size_t>(t) + 1]; ++k) {
          const std::size_t di = static_cast<std::size_t>(
              tree_dlinks[static_cast<std::size_t>(k)]);
          if (deferred
                  ? class_saturated[static_cast<std::size_t>(users[di])] != 0
                  : detail::flow_link_saturated(cap_of(di), fixed_of(di),
                                                level, users[di], eps)) {
            saturated = true;
            break;
          }
        }
        if (!saturated) continue;
        done[i] = 1;
        --remaining;
        ++fixed_this_round;
        rate[static_cast<std::size_t>(t)] = level;
        if (deferred) {
          frozen.push_back(t);
        } else {
          freeze_links(t, level);
          fixups_applied = true;
        }
      }
      // Every fix-up of a deferred round adds the same level, so applying
      // them after the round in any order leaves the in-order state; once
      // no tree is left they are dead and skipped.
      if (remaining > 0 && !frozen.empty()) {
        for (int t : frozen) freeze_links(t, level);
        fixups_applied = true;
      }
      if (fixed_this_round == 0) {
        // Numerical fallback: freeze everything left at the current level.
        for (std::size_t i = 0; i < act.size(); ++i) {
          if (!done[i]) rate[static_cast<std::size_t>(act[i])] = level;
        }
        remaining = 0;
      }
    }
    for (std::int32_t d : touched) users[static_cast<std::size_t>(d)] = 0;
    if (fixups_applied) {
      for (std::int32_t d : touched) {
        fixed_load[static_cast<std::size_t>(d)] = 0.0;
      }
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
    } else {
      // The structural counts include the empty trees.
      for (std::int64_t i = tree_dlink_base[static_cast<std::size_t>(t)];
           i < tree_dlink_base[static_cast<std::size_t>(t) + 1]; ++i) {
        --users[static_cast<std::size_t>(
            tree_dlinks[static_cast<std::size_t>(i)])];
      }
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
  // lead on its way to the root. The tail drains through both phases,
  // reduce and broadcast.
  const long long hop_lead =
      static_cast<long long>(std::max(config.link_latency, 1));
  for (int t = 0; t < num_trees; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    if (elements_per_tree[ti] == 0) continue;
    const long long depth = trees[ti].depth();
    const long long fill = depth * hop_lead * 2;
    const long long finish =
        static_cast<long long>(std::ceil(stream_end[ti])) + fill + 1;
    result.tree_finish_cycle[ti] = finish;
    result.tree_first_delivery[ti] = depth * hop_lead;
    result.cycles = std::max(result.cycles, finish);
  }
  if (result.cycles > config.max_cycles) {
    throw std::runtime_error("AllreduceSimulator: cycle limit exceeded");
  }
  result.aggregate_bandwidth = static_cast<double>(result.total_elements) /
                               static_cast<double>(result.cycles);
  if (!bg_rates_ppm.empty()) {
    // Same closed form the cycle engine telescopes to (settle_background).
    detail::settle_background(result, bg_rates_ppm, result.cycles);
  }


  // Flow-tier observability: the run-level metrics the report renders,
  // including the Zhou & Sun rate bound as the optimality yardstick.
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
            result.tree_finish_cycle[ti] - result.tree_first_delivery[ti] + 1,
            n_flow, track);
      }
      m.add(prefix + ".completed", result.tree_completed[ti]);
    }
  }
  return result;
}

}  // namespace pfar::simnet
