#pragma once

#include <optional>
#include <vector>

#include "model/congestion_model.hpp"
#include "simnet/allreduce_sim.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::collectives {

/// How the m vector elements are distributed across trees.
enum class SplitPolicy {
  /// m_i = m * B_i / sum(B) — the optimal distribution of Theorem 5.1.
  kOptimal,
  /// m_i = m / r, ignoring per-tree bandwidth; used as an ablation to show
  /// why the bandwidth-proportional split matters.
  kUniform,
};

/// Everything measured and predicted for one in-network Allreduce run.
struct InNetworkResult {
  simnet::SimResult sim;
  model::TreeBandwidths predicted;   // Algorithm 1
  std::vector<long long> split;      // m_i actually used
  long long m = 0;                   // total vector elements
  int max_depth = 0;                 // deepest tree (latency proxy)
  /// Simulated aggregate bandwidth / Algorithm 1 aggregate — approaches
  /// 1.0 as m grows (pipeline fill/drain amortizes away).
  double efficiency_vs_model = 0.0;
  /// The steady period the cycle engine verified, if it certified one
  /// (quiet, fault-free runs long enough to settle): TreeSetCost answers
  /// other vector sizes from it.
  std::optional<simnet::PeriodCertificate> period;
};

/// The one run core every in-network collective goes through: simulates
/// the Allreduce over `trees` with the per-tree element counts `split`
/// (one non-negative entry per tree; m is their sum) and reports the run
/// against `predicted`, the caller's already-computed Algorithm 1 result
/// (quiet or capacitated; it only feeds `predicted` and
/// efficiency_vs_model). Planning stays with the caller, so no path pays
/// for Algorithm 1 twice.
InNetworkResult run_planned_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees,
    std::vector<long long> split, model::TreeBandwidths predicted,
    const simnet::SimConfig& config);

/// Plans and simulates a multi-tree in-network Allreduce of an m-element
/// vector over the given spanning trees (Sections 4.3, 5.2 end-to-end):
/// takes the Algorithm 1 bandwidths, splits the vector per `policy`, and
/// runs the core. A tree set the caller already solved (a plan's
/// topology and trees, or the previous call's) costs no second solve:
/// model::compute_tree_bandwidths answers it from its memo.
InNetworkResult run_innetwork_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees, long long m,
    const simnet::SimConfig& config, SplitPolicy policy = SplitPolicy::kOptimal);

/// Elements the run's failed (timed-out and canceled) trees never
/// delivered: 0 on every run without a progress-timeout cancellation.
long long undelivered_elements(const InNetworkResult& run);

/// Flits the run moved across all directed links (payload + headers).
long long total_flits(const simnet::SimResult& sim);

/// The identity: the simulator takes SpanningTrees directly. Kept only
/// because the frozen perfbench driver (perfbench/main.cpp) still calls
/// it; it goes with the next change to that benchmark.
inline const std::vector<trees::SpanningTree>& to_embeddings(
    const std::vector<trees::SpanningTree>& trees) {
  return trees;
}
void to_embeddings(std::vector<trees::SpanningTree>&&) = delete;

/// A single-tree in-network baseline: a BFS tree rooted at `root` (the
/// SHARP-like topology-agnostic embedding whose Allreduce bandwidth is
/// capped at one link, Section 1.1).
trees::SpanningTree bfs_tree(const graph::Graph& g, int root);

}  // namespace pfar::collectives
