#pragma once

#include <map>
#include <utility>
#include <vector>

#include "collectives/resilient.hpp"
#include "core/planner.hpp"
#include "obsv/recorder.hpp"
#include "service/batching.hpp"
#include "service/job.hpp"
#include "service/scheduler.hpp"

namespace pfar::service {

/// Persistent, event-driven multi-tenant allreduce service over one
/// planned PolarFly fabric (docs/service_layer.md — the ROADMAP's
/// "millions of users" layer).
///
/// The service owns a virtual clock and an admission queue. Link-disjoint
/// tree groups of the plan become scheduling lanes with independent
/// timelines (exact, not approximate: lanes share no physical link). A
/// tenant-fair scheduler assigns queued jobs to freed lanes; under the
/// batched policy, queued jobs of the same operator coalesce into one
/// fused sub-vector run. Every job is an Allreduce over every node. Each
/// dispatched batch's duration and fabric work are exactly a
/// cycle-accurate (or flow-tier) simulation of that run on that lane's
/// trees, through a collectives::TreeSetCost memoized by fused size;
/// nothing else is charged. One-tree lanes of the same rooted shape share
/// one TreeSetCost on a quiet network: with one VC per directed link and
/// nothing else on the wire, such a run depends on nothing but the shape
/// (docs/simulation_engine.md, "A one-tree run depends only on its rooted
/// shape"). Multi-tree lanes, and every lane under background traffic,
/// keep their own. A TreeSetCost also answers large fused sizes from a
/// verified steady period without simulating; the recorder counts how
/// each batch was costed (service.lane_runs.{simulated,memo,shifted}).
/// Under a fault script a batch costs exactly what run_resilient_allreduce
/// costs on its lane: the lost part is replayed on trees repacked over the
/// residual topology. Only the serial policy's one lane may do that, so
/// the constructor rejects a fault script under the partitioned policies.
///
/// The loop is resumable: drain() runs until idle, after which more jobs
/// may be submitted and drained again; the clock and statistics persist.
/// Everything is integer virtual-cycle arithmetic over deterministic
/// simulator results, so a given submission history yields bit-identical
/// records for every PFAR_THREADS value and every wall-clock interleaving.
class AllreduceService {
 public:
  AllreduceService(core::AllreducePlan plan, ServiceConfig config);

  /// Submits a job and returns its id (index into records()). Jobs dated
  /// in the past are admitted at the current clock. Admission control
  /// applies at the job's arrival instant, not at submit() time.
  int submit(const JobSpec& spec);

  /// Runs the event loop until no arrivals, queued jobs or in-flight
  /// batches remain.
  void drain();

  /// Current virtual cycle (the last processed event).
  long long now() const { return clock_; }
  /// Lifecycle record per submitted job, indexed by submit() id.
  const std::vector<JobRecord>& records() const { return records_; }
  /// Cumulative statistics derived from the records.
  ServiceStats stats() const;

  int num_lanes() const { return static_cast<int>(lanes_.size()); }
  /// Global tree indices of one lane.
  const std::vector<int>& lane_trees(int lane) const {
    return lanes_[static_cast<std::size_t>(lane)].tree_ids;
  }
  const core::AllreducePlan& plan() const { return plan_; }

 private:
  struct Batch {
    std::vector<int> job_ids;
    long long total_elements = 0;
    long long start = 0;
    long long finish = 0;
    long long flits = 0;
  };
  struct LaneState {
    bool busy = false;
    Batch batch;
  };

  void process(long long t);
  void complete_lanes(long long t);
  void admit_arrivals(long long t);
  void dispatch_free_lanes();
  void finish_job(int job_id, long long cycle, int lane, int batch_jobs);

  core::AllreducePlan plan_;
  ServiceConfig config_;
  std::vector<Lane> lanes_;
  std::vector<collectives::TreeSetCost> costs_;  // shared by equal lanes
  std::vector<std::size_t> lane_cost_;           // per lane, into costs_
  std::vector<LaneState> lane_state_;

  long long clock_ = 0;
  long long next_seq_ = 0;
  std::vector<JobRecord> records_;
  std::vector<QueuedJob> pending_;  // submitted, arrival in the future
  std::vector<QueuedJob> queue_;    // admitted, awaiting dispatch
  std::map<int, long long> served_elements_;  // fairness ledger per tenant

  // Incrementally maintained slices of ServiceStats.
  int batches_ = 0;
  int coalesced_jobs_ = 0;
  long long total_flits_ = 0;
  long long replayed_elements_ = 0;
  bool values_correct_ = true;
};

}  // namespace pfar::service
