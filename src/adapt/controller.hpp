#pragma once

#include <vector>

#include "collectives/innetwork.hpp"
#include "graph/graph.hpp"
#include "model/congestion_model.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::adapt {

/// One directed link's congestion measurement over a probe window.
struct LinkCongestion {
  /// Collective flits the window moved on the link (payload + headers).
  long long flits = 0;
  /// Background-traffic flits drained on the link.
  long long bg_flits = 0;
  /// Peak receiver-buffer occupancy (packets) on the link.
  long long queue_hwm = 0;
  /// (flits + bg_flits) / window cycles: total occupancy of the link's
  /// one flit per cycle, in [0, ~1].
  double busy = 0.0;
  /// bg_flits / window cycles: the share of capacity
  /// background traffic claims — the part the collective cannot use, and
  /// the controller's primary congestion signal.
  double bg_busy = 0.0;
};

/// Per-directed-link congestion over one probe window, indexed by the
/// engines' directed-link id `2 * edge_id + (src > dst)`. Built from a
/// SimResult, whose fields the engines maintain unconditionally, so it
/// needs no Recorder attached (docs/congestion_adaptation.md).
struct CongestionMap {
  long long cycles = 0;
  std::vector<LinkCongestion> dlinks;  // 2 * num_edges entries

  static CongestionMap from_sim_result(const graph::Graph& topology,
                                       const simnet::SimResult& result);

  /// Background occupancy of undirected edge e: the max over its two
  /// directions (the collective needs both — reduce up, broadcast down).
  double edge_bg_busy(int edge_id) const;
  /// Peak queue HWM of undirected edge e over its two directions.
  long long edge_queue_hwm(int edge_id) const;
};

/// Controller constants. The congested-allreduce bench regresses against
/// them; see docs/congestion_adaptation.md for how each was picked.
///
/// A link whose background occupancy exceeds this fraction of capacity is
/// *hot*: trees are re-planned away from it when possible.
inline constexpr double kHotThreshold = 0.55;
/// Floor of the per-edge capacity scale fed to Algorithm 1, so a fully saturated link still carries a sliver of weight instead
/// of dividing by zero.
inline constexpr double kMinCapacityScale = 0.05;
/// Elements of the probe collective probe_and_adapt executes to measure
/// the network before committing the real vector.
inline constexpr long long kProbeElements = 512;

/// The controller's output: the (possibly re-planned) tree set, the
/// congestion-aware Algorithm 1 bandwidths to split by, and what changed.
struct AdaptedPlan {
  std::vector<trees::SpanningTree> trees;
  /// Capacitated Algorithm 1 over `trees` with `capacity_scale`.
  model::TreeBandwidths bandwidths;
  /// Per undirected edge id: fraction of the link's bandwidth left for
  /// the collective, in [kMinCapacityScale, 1].
  std::vector<double> capacity_scale;
  /// The hot links the re-planner routed around (after relaxing the raw
  /// hot set until the residual topology stayed connected).
  std::vector<graph::Edge> hot_links;
  /// Indices of trees that were replaced; un-replannable hot trees stay
  /// and the re-weighting de-emphasizes them.
  std::vector<int> replanned;
};

/// Closes the control loop's planning half: derives per-edge capacity
/// scales from the congestion map, re-plans trees off hot links (reusing
/// the resilience machinery: core::residual_graph connectivity checks,
/// greedy re-packing on the residual), and re-runs Algorithm 1 on the
/// capacitated network (model::compute_tree_bandwidths with the scales).
/// With a quiet-network map this is the identity: same trees, scales all
/// 1.0, bandwidths bit-identical to the uniform Algorithm 1.
AdaptedPlan adapt_plan(const graph::Graph& topology,
                       const std::vector<trees::SpanningTree>& trees,
                       const CongestionMap& congestion);

/// The controller's measuring half: the probe window and the plan adapted
/// to it.
struct ProbedPlan {
  /// The probe window's raw measurement.
  simnet::SimResult probe;
  CongestionMap congestion;
  AdaptedPlan plan;
};

/// Runs a short static probe collective (kProbeElements, Theorem 5.1
/// split) through the live background traffic of `config` — recorder-free,
/// so it does not perturb the caller's artifacts — reads its CongestionMap
/// and adapts the plan to it.
/// Emits nothing on any recorder; callers instrument the stage themselves.
ProbedPlan probe_and_adapt(const graph::Graph& topology,
                           const std::vector<trees::SpanningTree>& trees,
                           const simnet::SimConfig& config);

/// End-to-end outcome of one adaptive Allreduce: the probed plan, then
/// the runs on it.
struct AdaptiveResult : ProbedPlan {
  /// The adapted run: re-planned trees, congestion-aware split.
  collectives::InNetworkResult adaptive;
  /// The static baseline (original trees, Theorem 5.1 split), executed
  /// under the same background traffic; only filled when requested.
  collectives::InNetworkResult static_run;
  bool compared = false;
};

/// The full control loop (docs/congestion_adaptation.md): probe_and_adapt,
/// then the m-element collective on the adapted plan under `config`
/// through the collectives run core, with the adapt.* instrumentation on
/// config.recorder. With
/// `compare_static` the original static plan runs too, under identical
/// traffic, so callers (and the bench) can report the adaptation win.
AdaptiveResult run_adaptive_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees, long long m,
    const simnet::SimConfig& config, bool compare_static = false);

}  // namespace pfar::adapt
