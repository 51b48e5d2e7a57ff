#include "simnet/allreduce_sim.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "obsv/recorder.hpp"
#include "simnet/background.hpp"
#include "simnet/flow_sim.hpp"
#include "simnet/sim_internal.hpp"
#include "util/contracts.hpp"

namespace pfar::simnet {
namespace detail {

// pfar-lint: allow(contract-coverage) the script is validated via std::invalid_argument throws below
FaultState prepare_faults(const graph::Graph& topology,
                          const FaultScript& script) {
  const auto resolve = [&](int u, int v) {
    const int id = topology.edge_id(u, v);
    if (id < 0) {
      throw std::invalid_argument(
          "FaultScript: (" + std::to_string(u) + "," + std::to_string(v) +
          ") is not a link of the topology");
    }
    return id;
  };
  FaultState fs;
  fs.edge_down.assign(static_cast<std::size_t>(topology.num_edges()), 0);
  fs.events.reserve(script.events.size());
  for (const auto& ev : script.events) {
    if (ev.cycle < 0) {
      throw std::invalid_argument("FaultScript: negative event cycle");
    }
    fs.events.push_back(PreparedFault{ev.cycle, resolve(ev.u, ev.v),
                                      ev.type == FaultType::kLinkDown});
  }
  std::stable_sort(fs.events.begin(), fs.events.end(),
                   [](const PreparedFault& a, const PreparedFault& b) {
                     return a.cycle < b.cycle;
                   });
  return fs;
}

void SimObserver::finalize(long long cycles, const SimResult& result) {
  PFAR_REQUIRE(rec != nullptr, cycles);  // init() ran
  for (int d = 0; d < num_dlinks; ++d) close_busy_span(d);
  rec->trace.name_track(obsv::kTrackSim, "sim");
  obsv::Metrics& m = rec->metrics;
  m.hwm("sim.cycles", cycles);
  m.add("sim.total_elements", result.total_elements);
  m.hwm("sim.max_vc_occupancy", result.max_vc_occupancy);
  m.add("sim.credit_stalls", credit_stalls);
  m.add("sim.skipped_cycles", skipped_cycles);
  m.add("sim.fault_events", fault_events);
  if (result.dropped_packets > 0) {
    m.add("sim.dropped_packets", result.dropped_packets);
    m.add("sim.dropped_flits", result.dropped_flits);
  }
  if (result.canceled_packets > 0) {
    m.add("sim.canceled_packets", result.canceled_packets);
    m.add("sim.canceled_flits", result.canceled_flits);
  }
  if (result.background_flits > 0) {
    m.add("sim.background_packets", result.background_packets);
    m.add("sim.background_flits", result.background_flits);
  }
  for (int t = 0; t < num_trees; ++t) {
    const std::size_t ti = static_cast<std::size_t>(t);
    const std::uint32_t track =
        obsv::kTrackTreeBase + static_cast<std::uint32_t>(t);
    rec->trace.name_track(track, "tree " + std::to_string(t));
    if (reduce_first[ti] >= 0 && reduce_done[ti] >= reduce_first[ti]) {
      rec->trace.complete(reduce_first[ti],
                          reduce_done[ti] - reduce_first[ti] + 1, n_reduce,
                          track);
    }
    const long long first = result.tree_first_delivery[ti];
    const long long last = result.tree_failed[ti] != 0
                               ? result.tree_fail_cycle[ti]
                               : result.tree_finish_cycle[ti];
    if (first >= 0 && last >= first) {
      rec->trace.complete(first, last - first + 1, n_bcast, track);
    }
    const std::string prefix = "tree." + std::to_string(t);
    if (result.tree_finish_cycle[ti] >= 0) {
      m.hwm(prefix + ".finish_cycle", result.tree_finish_cycle[ti]);
    }
    if (first >= 0) m.hwm(prefix + ".first_delivery", first);
    m.add(prefix + ".completed", result.tree_completed[ti]);
    if (result.tree_failed[ti] != 0) m.add(prefix + ".failed");
  }
  // Busy spans last, in one canonical order: a ring-buffer overflow then
  // drops link spans before any tree span.
  std::sort(busy_spans.begin(), busy_spans.end(),
            [](const BusySpan& a, const BusySpan& b) {
              return a.last != b.last ? a.last < b.last : a.dlink < b.dlink;
            });
  for (const BusySpan& span : busy_spans) {
    rec->trace.complete(span.start, span.last - span.start + 1, n_busy,
                        obsv::kTrackLinkBase +
                            static_cast<std::uint32_t>(span.dlink));
  }
  busy_spans.clear();
  for (int d = 0; d < num_dlinks; ++d) {
    const std::size_t di = static_cast<std::size_t>(d);
    if (result.link_flits[di] == 0 && result.link_dropped_flits[di] == 0 &&
        result.link_bg_flits[di] == 0) {
      continue;
    }
    const std::string name = dlink_name(d);
    rec->trace.name_track(
        obsv::kTrackLinkBase + static_cast<std::uint32_t>(d),
        "link " + name);
    const std::string prefix = "link." + name;
    m.add(prefix + ".flits", result.link_flits[di]);
    m.hwm(prefix + ".queue_hwm", result.link_queue_hwm[di]);
    // Busy spans cover collective and background grants alike; the
    // congestion controller reads utilization from these two counters
    // (docs/congestion_adaptation.md).
    m.add(prefix + ".busy_cycles", busy_total[di]);
    if (result.link_bg_flits[di] > 0) {
      m.add(prefix + ".bg_flits", result.link_bg_flits[di]);
    }
    if (result.link_dropped_flits[di] > 0) {
      m.add(prefix + ".dropped_flits", result.link_dropped_flits[di]);
    }
  }
}

// pfar-lint: allow(contract-coverage) this is the contract: every violation throws std::invalid_argument
std::vector<int> validate_simulation(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees, const SimConfig& config) {
  if (config.link_latency < 0 ||
      config.vc_credits < 1 || config.fork_buffer < 1 ||
      config.packet_payload < 1 || config.packet_header_flits < 0) {
    throw std::invalid_argument("AllreduceSimulator: bad config");
  }
  if (config.progress_timeout < 0) {
    throw std::invalid_argument(
        "AllreduceSimulator: negative progress_timeout");
  }
  if (config.progress_timeout > 0 &&
      config.progress_timeout >= config.stall_limit) {
    throw std::invalid_argument(
        "AllreduceSimulator: progress_timeout must be below stall_limit so "
        "per-tree detection fires before the global deadlock check");
  }
  if (config.background.load < 0.0 || config.background.load >= 1.0) {
    throw std::invalid_argument(
        "AllreduceSimulator: background load must be in [0, 1)");
  }
  // Validate the fault script eagerly (edge existence, event cycles) so a
  // bad script fails at construction, not mid-run.
  static_cast<void>(prepare_faults(topology, config.faults));
  // A SpanningTree is a rooted tree by construction; what it cannot know
  // is the topology. The resolve is the edge check.
  for (const auto& tree : trees) {
    if (tree.num_vertices() != topology.num_vertices()) {
      throw std::invalid_argument("AllreduceSimulator: tree size mismatch");
    }
  }
  try {
    return trees::tree_links(topology, trees);
  } catch (const std::invalid_argument&) {
    throw std::invalid_argument(
        "AllreduceSimulator: tree edge not a physical link");
  }
}

void reset_result(SimResult& result, int num_trees, int num_dlinks) {
  PFAR_REQUIRE(num_trees >= 0 && num_dlinks >= 0, num_trees, num_dlinks);
  const std::size_t trees = static_cast<std::size_t>(num_trees);
  const std::size_t dlinks = static_cast<std::size_t>(num_dlinks);
  result.values_correct = true;
  result.tree_finish_cycle.assign(trees, 0);
  result.tree_first_delivery.assign(trees, -1);
  result.tree_failed.assign(trees, 0);
  result.tree_fail_cycle.assign(trees, -1);
  result.tree_completed.assign(trees, 0);
  result.link_flits.assign(dlinks, 0);
}

void settle_background(SimResult& result,
                       const std::vector<long long>& rates_ppm,
                       long long closed_form_cycles) {
  PFAR_REQUIRE(closed_form_cycles >= -1, closed_form_cycles);
  constexpr long long packet_flits = BackgroundTraffic::packet_flits;
  if (closed_form_cycles >= 0) {
    for (std::size_t d = 0; d < result.link_bg_flits.size(); ++d) {
      result.link_bg_flits[d] = closed_form_cycles * rates_ppm[d] /
                                (packet_flits * 1'000'000) * packet_flits;
    }
  }
  for (const long long flits : result.link_bg_flits) {
    result.background_flits += flits;
  }
  result.background_packets = result.background_flits / packet_flits;
}

// pfar-lint: allow(contract-coverage) the split is validated via std::invalid_argument throws, as in AllreduceSimulator::run
RunContext::RunContext(const graph::Graph& topology_in,
                       const SimConfig& config_in,
                       const std::vector<long long>& elements)
    : topology(topology_in), config(config_in), elements_per_tree(elements) {
  const int num_trees = static_cast<int>(elements.size());
  const int num_dlinks = 2 * topology.num_edges();
  reset_result(result, num_trees, num_dlinks);
  result.link_queue_hwm.assign(static_cast<std::size_t>(num_dlinks), 0);
  result.link_bg_flits.assign(static_cast<std::size_t>(num_dlinks), 0);
  result.link_dropped_flits.assign(static_cast<std::size_t>(num_dlinks), 0);
  // Deliveries owed per tree: every element at every node.
  const long long receivers = topology.num_vertices();
  tree_remaining.resize(elements.size());
  for (std::size_t t = 0; t < elements.size(); ++t) {
    if (elements[t] < 0) {
      throw std::invalid_argument("run: negative element count");
    }
    result.total_elements += elements[t];
    tree_remaining[t] = elements[t] * receivers;
    total_target += tree_remaining[t];
  }
  if (total_target == 0) return;
  fault = prepare_faults(topology, config.faults);
  // Background traffic: steady-state per-directed-link drain rates
  // (empty = quiet network, and none of the loop's background code runs).
  if (config.background.active()) {
    bg_rates = background_link_rates_ppm(topology, config.background);
  }
  // Observability: attach only when compiled in and a Recorder is given.
  if constexpr (obsv::kTraceCompiled) {
    if (config.recorder != nullptr) {
      observer.init(config.recorder, topology, num_trees);
      obs = &observer;
    }
  }
}

SimResult RunContext::finish(long long cycles) {
  PFAR_REQUIRE(total_target > 0 && cycles > 0, total_target, cycles);
  result.cycles = cycles;
  result.aggregate_bandwidth = static_cast<double>(result.total_elements) /
                               static_cast<double>(cycles);
  // Healthy trees completed their whole assignment; failed trees recorded
  // their complete prefix at cancel time.
  for (std::size_t t = 0; t < elements_per_tree.size(); ++t) {
    if (!result.tree_failed[t]) {
      result.tree_completed[t] = elements_per_tree[t];
    }
  }
  // Links still down at run end: the set recovery must replan around.
  const auto& edges = topology.edges();
  for (std::size_t e = 0; e < fault.edge_down.size(); ++e) {
    if (fault.edge_down[e]) result.links_down.push_back(edges[e]);
  }
  if (!bg_rates.empty()) {
    // Every link was up for the whole run when no down/up events exist,
    // so each link's drain count telescopes to the closed form over
    // [0, cycles). Writing it here extends the accounting to links the
    // loop never touches (no VCs — the loop skips them, yet their
    // background load is real and the congestion controller wants it).
    // With down events the loop-maintained per-up-cycle counts stand, and
    // only VC-carrying links are accounted.
    settle_background(result, bg_rates,
                      config.faults.events.empty() ? cycles : -1);
  }
  if (obs != nullptr) obs->finalize(cycles, result);
  return std::move(result);
}

}  // namespace detail

// pfar-lint: allow(contract-coverage) the config, the fault script and the trees' fit to the topology are validated via std::invalid_argument throws in detail::validate_simulation; SpanningTree's constructor validated the trees themselves
AllreduceSimulator::AllreduceSimulator(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees, SimConfig config)
    : topology_(topology),
      trees_(trees),
      config_(config),
      links_(detail::validate_simulation(topology_, trees_, config_)) {}

// pfar-lint: allow(contract-coverage) the split vector is validated via std::invalid_argument throws (size here, sign in detail::RunContext), matching the constructor
SimResult AllreduceSimulator::run(
    const std::vector<long long>& elements_per_tree,
    std::optional<PeriodCertificate>* period) {
  const int num_trees = static_cast<int>(trees_.size());
  if (static_cast<int>(elements_per_tree.size()) != num_trees) {
    throw std::invalid_argument("run: elements_per_tree size mismatch");
  }
  if (period != nullptr) period->reset();
  // Only quiet, fault-free runs certify a period: background drains and
  // fault events follow absolute time, which a shifted run does not share.
  if (!config_.faults.empty() || config_.background.active()) period = nullptr;

  // The flow tier never builds the per-VC fabric — that is the point: its
  // footprint is O(E + trees * N), which is what lets it reach q >= 243.
  if (config_.engine == SimEngine::kFlow) {
    return run_flow_allreduce(topology_, trees_, links_, config_,
                              elements_per_tree);
  }

  detail::RunContext run(topology_, config_, elements_per_tree);
  const detail::Fabric fabric =
      detail::build_fabric(topology_, trees_, links_, run.result);
  if (run.total_target == 0) return std::move(run.result);
  return run.finish(detail::run_fast_loop(fabric, run, period));
}

// Union-find over edge ownership: a tree joins the group of every tree
// that already owns one of its links.
// pfar-lint: allow(contract-coverage) trees::tree_links validates every tree edge via std::invalid_argument throws
std::vector<std::vector<int>> link_disjoint_tree_groups(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees) {
  const std::vector<int> links = trees::tree_links(topology, trees);
  const int n = topology.num_vertices();
  const int num_trees = static_cast<int>(trees.size());
  std::vector<int> uf(static_cast<std::size_t>(num_trees));
  for (int t = 0; t < num_trees; ++t) uf[static_cast<std::size_t>(t)] = t;
  const auto find = [&](int x) {
    while (uf[static_cast<std::size_t>(x)] != x) {
      uf[static_cast<std::size_t>(x)] =
          uf[static_cast<std::size_t>(uf[static_cast<std::size_t>(x)])];
      x = uf[static_cast<std::size_t>(x)];
    }
    return x;
  };
  std::vector<int> edge_owner(static_cast<std::size_t>(topology.num_edges()),
                              -1);
  for (int t = 0; t < num_trees; ++t) {
    for (int v = 0; v < n; ++v) {
      const int id = links[static_cast<std::size_t>(t) *
                               static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(v)];
      if (id < 0) continue;  // the root
      const std::size_t e = static_cast<std::size_t>(id);
      if (edge_owner[e] < 0) {
        edge_owner[e] = t;
      } else {
        const int a = find(edge_owner[e]);
        const int b = find(t);
        if (a != b) uf[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
      }
    }
  }
  std::vector<int> group_of(static_cast<std::size_t>(num_trees), -1);
  std::vector<std::vector<int>> groups;
  for (int t = 0; t < num_trees; ++t) {
    const std::size_t r = static_cast<std::size_t>(find(t));
    if (group_of[r] < 0) {
      group_of[r] = static_cast<int>(groups.size());
      groups.emplace_back();
    }
    groups[static_cast<std::size_t>(group_of[r])].push_back(t);
  }
  // The groups partition the tree set: every tree lands in exactly one.
  std::size_t grouped = 0;
  for (const auto& g : groups) grouped += g.size();
  PFAR_ENSURE(grouped == static_cast<std::size_t>(num_trees), grouped,
              num_trees);
  return groups;
}

}  // namespace pfar::simnet
