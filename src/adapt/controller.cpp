#include "adapt/controller.hpp"

#include <algorithm>
#include <span>

#include "core/resilience.hpp"
#include "obsv/recorder.hpp"
#include "trees/packing.hpp"
#include "util/contracts.hpp"

namespace pfar::adapt {
namespace {

/// Occupancy of `flits` on a directed link (one flit per cycle) over
/// `cycles`.
double occupancy(long long flits, long long cycles) {
  if (cycles <= 0) return 0.0;
  return static_cast<double>(flits) / static_cast<double>(cycles);
}

/// Runs Algorithm 1 over the plan's final tree set on the network
/// capacitated by its scales — the re-weighting half of the controller,
/// shared by every exit path of adapt_plan.
AdaptedPlan finalize_plan(AdaptedPlan plan, const graph::Graph& topology) {
  plan.bandwidths = model::compute_tree_bandwidths(topology, plan.trees, 1.0,
                                                   plan.capacity_scale);
  return plan;
}

}  // namespace

CongestionMap CongestionMap::from_sim_result(const graph::Graph& topology,
                                             const simnet::SimResult& result) {
  const std::size_t num_dlinks =
      static_cast<std::size_t>(2 * topology.num_edges());
  PFAR_REQUIRE(result.link_flits.size() == num_dlinks,
               result.link_flits.size(), num_dlinks);
  CongestionMap map;
  map.cycles = result.cycles;
  map.dlinks.assign(num_dlinks, {});
  for (std::size_t d = 0; d < num_dlinks; ++d) {
    LinkCongestion& lc = map.dlinks[d];
    lc.flits = result.link_flits[d];
    if (d < result.link_bg_flits.size()) lc.bg_flits = result.link_bg_flits[d];
    if (d < result.link_queue_hwm.size()) {
      lc.queue_hwm = result.link_queue_hwm[d];
    }
    lc.busy = occupancy(lc.flits + lc.bg_flits, map.cycles);
    lc.bg_busy = occupancy(lc.bg_flits, map.cycles);
  }
  return map;
}

double CongestionMap::edge_bg_busy(int edge_id) const {
  const std::size_t d = static_cast<std::size_t>(2 * edge_id);
  PFAR_REQUIRE(d + 1 < dlinks.size(), edge_id, dlinks.size());
  return std::max(dlinks[d].bg_busy, dlinks[d + 1].bg_busy);
}

long long CongestionMap::edge_queue_hwm(int edge_id) const {
  const std::size_t d = static_cast<std::size_t>(2 * edge_id);
  PFAR_REQUIRE(d + 1 < dlinks.size(), edge_id, dlinks.size());
  return std::max(dlinks[d].queue_hwm, dlinks[d + 1].queue_hwm);
}

AdaptedPlan adapt_plan(const graph::Graph& topology,
                       const std::vector<trees::SpanningTree>& trees,
                       const CongestionMap& congestion) {
  PFAR_REQUIRE(!trees.empty(), trees.size());
  const int num_edges = topology.num_edges();
  PFAR_REQUIRE(congestion.dlinks.size() ==
                   static_cast<std::size_t>(2 * num_edges),
               congestion.dlinks.size(), num_edges);

  AdaptedPlan plan;
  plan.trees = trees;

  // Re-weighting input: what is left of each edge once background traffic
  // took its share. A quiet edge scales by exactly 1.0, so a quiet map
  // reproduces the uncapacitated Algorithm 1 bit-for-bit.
  plan.capacity_scale.assign(static_cast<std::size_t>(num_edges), 1.0);
  for (int e = 0; e < num_edges; ++e) {
    const double bg = congestion.edge_bg_busy(e);
    if (bg > 0.0) {
      plan.capacity_scale[static_cast<std::size_t>(e)] =
          std::max(1.0 - bg, kMinCapacityScale);
    }
  }

  // Hot set: edges background traffic dominates. Sorted hottest-first
  // (queue pressure breaks ties) and relaxed from the coolest end until
  // removing the set keeps the topology connected — the same invariant
  // the resilience replanner enforces for failed links.
  std::vector<int> hot_ids;
  for (int e = 0; e < num_edges; ++e) {
    if (congestion.edge_bg_busy(e) > kHotThreshold) hot_ids.push_back(e);
  }
  std::stable_sort(hot_ids.begin(), hot_ids.end(), [&](int a, int b) {
    const double ba = congestion.edge_bg_busy(a);
    const double bb = congestion.edge_bg_busy(b);
    if (ba != bb) return ba > bb;
    return congestion.edge_queue_hwm(a) > congestion.edge_queue_hwm(b);
  });
  if (hot_ids.empty()) return finalize_plan(plan, topology);

  // taken[e]: edge e is unavailable to replacement trees — hot, or (on
  // disjoint plans) held by a tree.
  std::vector<char> taken(static_cast<std::size_t>(num_edges), 0);
  std::size_t keep = hot_ids.size();
  for (; keep > 0; --keep) {  // tolerate the least-hot link until connected
    std::fill(taken.begin(), taken.end(), 0);
    for (std::size_t i = 0; i < keep; ++i) {
      taken[static_cast<std::size_t>(hot_ids[i])] = 1;
    }
    if (core::residual_graph(topology, taken).is_connected()) break;
  }
  if (keep == 0) return finalize_plan(plan, topology);
  const std::vector<char> is_hot = taken;
  for (std::size_t i = 0; i < keep; ++i) {
    plan.hot_links.push_back(
        topology.edges()[static_cast<std::size_t>(hot_ids[i])]);
  }

  // Row t of `links` holds tree t's parent-edge ids, -1 at the root.
  const std::size_t n = static_cast<std::size_t>(topology.num_vertices());
  const std::vector<int> links = trees::tree_links(topology, trees);
  const auto row = [&](std::size_t t) {
    return std::span<const int>(links).subspan(t * n, n);
  };
  const auto tree_is_hot = [&](std::span<const int> ids) {
    return std::any_of(ids.begin(), ids.end(), [&](int id) {
      return id >= 0 && is_hot[static_cast<std::size_t>(id)];
    });
  };
  const auto set_taken = [&](std::span<const int> ids, char value) {
    for (const int id : ids) {
      if (id >= 0 && !is_hot[static_cast<std::size_t>(id)]) {
        taken[static_cast<std::size_t>(id)] = value;
      }
    }
  };

  if (trees::edge_disjoint(topology, trees)) {
    // Disjoint plans stay disjoint: replacements may only use edges no
    // current tree occupies. Each hot tree first releases its own edges
    // (its replacement may reuse the cool ones), then either a packed
    // replacement claims its edges or the original re-reserves them.
    for (std::size_t t = 0; t < trees.size(); ++t) set_taken(row(t), 1);
    for (std::size_t t = 0; t < trees.size(); ++t) {
      if (!tree_is_hot(row(t))) continue;
      set_taken(row(t), 0);
      auto packed = trees::greedy_tree_packing(
          core::residual_graph(topology, taken), /*max_trees=*/1);
      if (!packed.empty()) {
        set_taken(trees::tree_links(topology, packed), 1);
        plan.trees[t] = std::move(packed.front());
        plan.replanned.push_back(static_cast<int>(t));
      } else {
        set_taken(row(t), 1);  // keep: re-reserve its edges
      }
    }
  } else {
    // Shared-edge plans (e.g. the paper's congestion-2 low-depth trees):
    // rebuild each hot tree as a BFS tree of the hot-free residual at its
    // original root. The relaxation above guarantees the residual is
    // connected, so every rebuild succeeds.
    const graph::Graph residual = core::residual_graph(topology, taken);
    for (std::size_t t = 0; t < trees.size(); ++t) {
      if (!tree_is_hot(row(t))) continue;
      plan.trees[t] = collectives::bfs_tree(residual, trees[t].root());
      plan.replanned.push_back(static_cast<int>(t));
    }
  }

  // Commit the replan only if the capacitated model predicts it beats the
  // reweighted original plan. Routing around a hot region can be a net
  // loss — e.g. a saturated hotspot node forces every rebuilt tree
  // through its one tolerated cool link, trading q moderately-slow trees
  // for q trees serialized behind a single link — and the controller must
  // never adapt into a predictably worse plan.
  plan = finalize_plan(std::move(plan), topology);
  if (!plan.replanned.empty()) {
    const model::TreeBandwidths original_bw =
        model::compute_tree_bandwidths(topology, trees, 1.0,
                                       plan.capacity_scale);
    if (plan.bandwidths.aggregate <= original_bw.aggregate) {
      plan.trees = trees;
      plan.replanned.clear();
      plan.bandwidths = original_bw;
    }
    PFAR_ENSURE(plan.bandwidths.aggregate >= original_bw.aggregate,
                plan.bandwidths.aggregate, original_bw.aggregate);
  }
  return plan;
}

ProbedPlan probe_and_adapt(const graph::Graph& topology,
                           const std::vector<trees::SpanningTree>& trees,
                           const simnet::SimConfig& config) {
  PFAR_REQUIRE(!trees.empty(), trees.size());
  simnet::SimConfig probe_cfg = config;
  probe_cfg.recorder = nullptr;
  ProbedPlan out;
  out.probe = collectives::run_innetwork_allreduce(topology, trees,
                                                   kProbeElements,
                                                   probe_cfg)
                  .sim;
  out.congestion = CongestionMap::from_sim_result(topology, out.probe);
  out.plan = adapt_plan(topology, trees, out.congestion);
  return out;
}

AdaptiveResult run_adaptive_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees, long long m,
    const simnet::SimConfig& config, bool compare_static) {
  PFAR_REQUIRE(m >= 0, m);
  AdaptiveResult out;
  static_cast<ProbedPlan&>(out) = probe_and_adapt(topology, trees, config);

  if (config.recorder != nullptr) {
    obsv::Recorder* rec = config.recorder;
    rec->metrics.add("adapt.probe_cycles", out.probe.cycles);
    rec->metrics.add("adapt.hot_links",
                     static_cast<long long>(out.plan.hot_links.size()));
    rec->metrics.add("adapt.replanned_trees",
                     static_cast<long long>(out.plan.replanned.size()));
    rec->trace.name_track(obsv::kTrackAdapt, "adapt");
    rec->trace.complete(0, out.probe.cycles, rec->trace.intern("probe window"),
                        obsv::kTrackAdapt);
    rec->trace.instant(
        out.probe.cycles, rec->trace.intern("replan"), obsv::kTrackAdapt,
        {"hot_links", static_cast<long long>(out.plan.hot_links.size())},
        {"replanned", static_cast<long long>(out.plan.replanned.size())});
  }

  // The split follows the capacitated bandwidths; `predicted` stays the
  // quiet-network Algorithm 1 so callers read the adaptation against the
  // static model.
  out.adaptive = collectives::run_planned_allreduce(
      topology, out.plan.trees, model::optimal_split(m, out.plan.bandwidths),
      model::compute_tree_bandwidths(topology, out.plan.trees, 1.0), config);

  if (compare_static) {
    simnet::SimConfig static_cfg = config;
    static_cfg.recorder = nullptr;  // one run per single-writer Recorder
    out.static_run = collectives::run_innetwork_allreduce(
        topology, trees, m, static_cfg, collectives::SplitPolicy::kOptimal);
    out.compared = true;
  }
  return out;
}

}  // namespace pfar::adapt
