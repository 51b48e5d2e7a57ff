#include "core/planner.hpp"

#include <stdexcept>

#include "obsv/recorder.hpp"
#include "singer/disjoint.hpp"
#include "trees/hamiltonian.hpp"
#include "trees/low_depth.hpp"
#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace pfar::core {

// pfar-lint: allow(contract-coverage) pure query over an already-validated plan; zero is the legitimate empty answer
int AllreducePlan::max_depth() const {
  int d = 0;
  for (const auto& t : trees_) d = std::max(d, t.depth());
  return d;
}

int AllreducePlan::max_congestion() const {
  return trees::max_congestion(*topology_, trees_);
}

double AllreducePlan::optimal_bandwidth() const {
  return model::optimal_polarfly_bandwidth(q_, 1.0);
}

std::vector<long long> AllreducePlan::split(long long m) const {
  return model::optimal_split(m, bandwidths_);
}

collectives::InNetworkResult AllreducePlan::simulate(
    long long m, const simnet::SimConfig& config) const {
  PFAR_REQUIRE(m >= 0, m);
  return collectives::run_planned_allreduce(*topology_, trees_, split(m),
                                           bandwidths_, config);
}

// pfar-lint: allow(contract-coverage) thin delegation; simnet::link_disjoint_tree_groups carries the contracts
std::vector<std::vector<int>> AllreducePlan::link_disjoint_tree_groups() const {
  return simnet::link_disjoint_tree_groups(*topology_, trees_);
}

// pfar-lint: allow(contract-coverage) q is validated via the std::invalid_argument throw, which callers rely on to probe prime powers
AllreducePlanner::AllreducePlanner(int q) : q_(q) {
  if (!util::is_prime_power(q)) {
    throw std::invalid_argument("AllreducePlanner: q must be a prime power");
  }
}

AllreducePlan AllreducePlanner::build() const {
  AllreducePlan plan;
  plan.q_ = q_;
  plan.solution_ = solution_;

  // Phase timers land in the recorder's metrics only (wall-clock values
  // must never enter a trace, which is pinned byte-deterministic).
  obsv::Metrics* pm = observer_ != nullptr ? &observer_->metrics : nullptr;

  switch (solution_) {
    case Solution::kLowDepth: {
      std::shared_ptr<polarfly::PolarFly> pf;
      {
        obsv::ScopedTimerMs timer(pm, "planner.topology_ms");
        pf = std::make_shared<polarfly::PolarFly>(q_);
      }
      {
        obsv::ScopedTimerMs timer(pm, "planner.trees_ms");
        if (q_ % 2 == 1) {
          const auto layout = polarfly::build_layout(*pf, starter_);
          plan.trees_ = trees::build_low_depth_trees(*pf, layout, threads_);
        } else {
          // Even q: the paper's unpublished analogue, reconstructed in
          // build_low_depth_trees_even (q-1 trees, depth <= 3,
          // congestion 2).
          plan.trees_ =
              trees::build_low_depth_trees_even(*pf, starter_, threads_);
        }
      }
      plan.topology_ =
          std::shared_ptr<const graph::Graph>(pf, &pf->graph());
      plan.owner_ = pf;
      break;
    }
    case Solution::kSingleTree: {
      std::shared_ptr<polarfly::PolarFly> pf;
      {
        obsv::ScopedTimerMs timer(pm, "planner.topology_ms");
        pf = std::make_shared<polarfly::PolarFly>(q_);
      }
      {
        obsv::ScopedTimerMs timer(pm, "planner.trees_ms");
        plan.trees_.push_back(collectives::bfs_tree(pf->graph(), 0));
      }
      plan.topology_ =
          std::shared_ptr<const graph::Graph>(pf, &pf->graph());
      plan.owner_ = pf;
      break;
    }
    case Solution::kEdgeDisjoint: {
      std::shared_ptr<singer::SingerGraph> sg;
      {
        obsv::ScopedTimerMs timer(pm, "planner.topology_ms");
        sg = std::make_shared<singer::SingerGraph>(q_);
      }
      {
        obsv::ScopedTimerMs timer(pm, "planner.trees_ms");
        const auto set = singer::find_disjoint_hamiltonians(
            sg->difference_set(), threads_);
        plan.trees_ = trees::hamiltonian_trees(set, threads_);
      }
      plan.topology_ =
          std::shared_ptr<const graph::Graph>(sg, &sg->graph());
      plan.owner_ = sg;
      break;
    }
  }
  {
    obsv::ScopedTimerMs timer(pm, "planner.bandwidths_ms");
    plan.bandwidths_ =
        model::compute_tree_bandwidths(*plan.topology_, plan.trees_, 1.0);
  }

  // Every built plan ships the same shape regardless of solution: a
  // topology on q^2+q+1 vertices, >= 1 tree and one bandwidth per tree.
  PFAR_ENSURE(plan.topology_->num_vertices() == q_ * q_ + q_ + 1, q_,
              plan.topology_->num_vertices());
  PFAR_ENSURE(!plan.trees_.empty(), q_, static_cast<int>(solution_));
  PFAR_ENSURE(plan.bandwidths_.per_tree.size() == plan.trees_.size(), q_,
              plan.bandwidths_.per_tree.size(), plan.trees_.size());
#if PFAR_AUDIT_ENABLED
  // Solution-specific guarantees the rest of the stack leans on:
  // edge-disjoint plans must actually be edge-disjoint (Cor. 7.15/7.16),
  // and every tree must span the topology.
  for (const auto& t : plan.trees_) {
    PFAR_INVARIANT(t.is_spanning_tree_of(*plan.topology_), q_, t.root());
  }
  if (solution_ == Solution::kEdgeDisjoint) {
    PFAR_INVARIANT(trees::edge_disjoint(*plan.topology_, plan.trees_), q_,
                   plan.trees_.size());
  }
#endif
  return plan;
}

// pfar-lint: allow(contract-coverage) total switch over the enum; the "?" fallthrough is the documented answer for out-of-range values
std::string to_string(Solution s) {
  switch (s) {
    case Solution::kLowDepth: return "low-depth (Alg. 3)";
    case Solution::kEdgeDisjoint: return "edge-disjoint Hamiltonian";
    case Solution::kSingleTree: return "single BFS tree";
  }
  return "?";
}

}  // namespace pfar::core
