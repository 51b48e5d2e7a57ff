#pragma once

#include <memory>
#include <string>
#include <vector>

#include "collectives/innetwork.hpp"
#include "model/congestion_model.hpp"
#include "polarfly/erq.hpp"
#include "polarfly/layout.hpp"
#include "singer/singer_graph.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::obsv {
struct Recorder;
}

namespace pfar::core {

/// Which of the paper's two Allreduce solutions to build (Section 7).
enum class Solution {
  /// Algorithm 3: q trees, depth <= 3, congestion 2 — lowest latency.
  kLowDepth,
  /// Section 7.2: floor((q+1)/2) edge-disjoint Hamiltonian-path trees —
  /// zero congestion, one VC per link, optimal bandwidth for odd q.
  kEdgeDisjoint,
  /// Single BFS tree (SHARP-like baseline, bandwidth capped at one link).
  kSingleTree,
};

/// A fully planned in-network Allreduce on PolarFly: topology, spanning
/// trees, analytic performance (Algorithm 1 / Theorem 5.1), and an
/// optional cycle-level simulation. This is the library's front door.
class AllreducePlan {
 public:
  const graph::Graph& topology() const { return *topology_; }
  const std::vector<trees::SpanningTree>& trees() const { return trees_; }
  const model::TreeBandwidths& bandwidths() const { return bandwidths_; }

  int q() const { return q_; }
  Solution solution() const { return solution_; }
  int num_nodes() const { return topology_->num_vertices(); }
  int num_trees() const { return static_cast<int>(trees_.size()); }
  int max_depth() const;
  int max_congestion() const;

  /// Aggregate Allreduce bandwidth under Algorithm 1 (per unit link
  /// bandwidth B = 1).
  double aggregate_bandwidth() const { return bandwidths_.aggregate; }
  /// Optimal bandwidth (q+1)/2 from Corollary 7.1, for normalization.
  double optimal_bandwidth() const;

  /// Theorem 5.1 optimal split of an m-element vector.
  std::vector<long long> split(long long m) const;

  /// Partition of this plan's trees into link-disjoint groups (tree indices;
  /// simnet::link_disjoint_tree_groups). Edge-disjoint Hamiltonian plans
  /// yield one singleton group per tree; low-depth plans (congestion 2)
  /// typically collapse into fewer, larger groups. These groups are the
  /// lanes of the multi-tenant service scheduler (docs/service_layer.md).
  std::vector<std::vector<int>> link_disjoint_tree_groups() const;

  /// Cycle-level simulation of an m-element Allreduce on this plan.
  collectives::InNetworkResult simulate(
      long long m, const simnet::SimConfig& config = {}) const;

 private:
  friend class AllreducePlanner;
  friend struct PlanIO;  // serialize_plan / parse_plan (core/serialize)
  int q_ = 0;
  Solution solution_ = Solution::kLowDepth;
  std::shared_ptr<const graph::Graph> topology_;  // owns via aliasing
  std::shared_ptr<const void> owner_;  // keeps PolarFly/SingerGraph alive
  std::vector<trees::SpanningTree> trees_;
  model::TreeBandwidths bandwidths_;
};

/// Builder for AllreducePlan.
///
///   auto plan = AllreducePlanner(11).solution(Solution::kEdgeDisjoint)
///                   .build();
///   auto result = plan.simulate(100000);
class AllreducePlanner {
 public:
  explicit AllreducePlanner(int q);

  AllreducePlanner& solution(Solution s) {
    solution_ = s;
    return *this;
  }
  /// Starter quadric index for the low-depth layout (default 0).
  AllreducePlanner& starter_quadric(int index) {
    starter_ = index;
    return *this;
  }
  /// Worker threads for the parallel construction phases (per-tree
  /// Algorithm 3 levels, Hamiltonian path materialization). <= 0 means
  /// util::default_threads(); the result is identical for every value.
  AllreducePlanner& threads(int t) {
    threads_ = t;
    return *this;
  }
  /// Observability sink: build() records per-phase wall-clock timers
  /// (planner.*_ms histograms) into the recorder's metrics. Null (the
  /// default) records nothing; plans are identical either way.
  AllreducePlanner& observer(obsv::Recorder* rec) {
    observer_ = rec;
    return *this;
  }

  AllreducePlan build() const;

 private:
  int q_;
  Solution solution_ = Solution::kLowDepth;
  int starter_ = 0;
  int threads_ = 0;
  obsv::Recorder* observer_ = nullptr;
};

/// Human-readable name of a solution.
std::string to_string(Solution s);

}  // namespace pfar::core
