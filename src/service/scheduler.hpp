#pragma once

#include <cstddef>
#include <map>
#include <vector>

#include "graph/graph.hpp"
#include "service/job.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::service {

/// A scheduling lane: a link-disjoint subset of the plan's trees with its
/// own virtual timeline. Lanes share no physical link (they come from
/// simnet::link_disjoint_tree_groups), so a run on one lane neither slows
/// nor is slowed by runs on any other — concurrency across lanes is exact.
struct Lane {
  /// Indices into the plan's tree set (ascending).
  std::vector<int> tree_ids;
};

/// Partitions the tree set into scheduling lanes. kSerial yields one lane
/// holding every tree; the partitioned policies yield one lane per
/// link-disjoint tree group (edge-disjoint Hamiltonian plans: one lane per
/// tree; low-depth congestion-2 plans typically collapse into one lane, in
/// which case the partitioned policies degrade gracefully to time-sharing).
std::vector<Lane> build_lanes(const graph::Graph& topology,
                              const std::vector<trees::SpanningTree>& trees,
                              SchedulerPolicy policy);

/// One admitted, not-yet-dispatched job in the service queue.
struct QueuedJob {
  int job_id = 0;  // index into the service's record table
  int tenant = 0;
  long long elements = 0;
  ReduceOp op = ReduceOp::kSum;
  int priority = 0;
  /// Admission cycle and a global submission ordinal; together the
  /// deterministic tie-breaker everywhere.
  long long queued_cycle = 0;
  long long seq = 0;
};

/// Deterministic tenant-fair pick of the next job to dispatch: the tenant
/// with the fewest elements served so far goes first (ties to the smaller
/// tenant id), and within that tenant the highest priority job (ties to
/// the earliest (queued_cycle, seq)). Fairness across tenants dominates
/// priority by design: priority expresses urgency within a tenant's own
/// traffic, not a way to crowd out neighbors. Returns an index into
/// `queue`; requires a non-empty queue.
std::size_t pick_seed(const std::vector<QueuedJob>& queue,
                      const std::map<int, long long>& served_elements);

}  // namespace pfar::service
