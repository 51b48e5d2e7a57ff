#pragma once

#include <cstdint>
#include <vector>

#include "simnet/config.hpp"

namespace pfar::service {

/// How the service maps concurrently admitted jobs onto the plan's trees
/// (docs/service_layer.md, "Scheduler policies").
enum class SchedulerPolicy {
  /// One job at a time on the full tree set — the one-shot baseline the
  /// throughput bench compares against. The one policy that accepts a
  /// fault script: its lane recovers through the resilient driver.
  kSerial,
  /// The plan's link-disjoint tree groups become independent lanes; each
  /// admitted job runs on one lane, so as many jobs proceed concurrently
  /// as there are lanes (exact: lanes share no physical link).
  kPartitioned,
  /// kPartitioned plus coalescing: when a lane frees, queued jobs of the
  /// same operator fuse into one sub-vector run, paying the tree
  /// pipeline fill once for the whole batch
  /// (collectives::run_bucketed_allreduce, BucketStrategy::kFused).
  kPartitionedBatched,
};

/// Canonical JSON names: "serial", "partitioned", "batched".
const char* to_string(SchedulerPolicy policy);

/// Reduction operator tag. The cycle simulator checks integer sums
/// exactly; kMax times identically (one streaming ALU op per element) but
/// is tracked because only jobs with the SAME operator may coalesce into
/// one fused run.
enum class ReduceOp {
  kSum,
  kMax,
};

/// One allreduce job submitted to the service: an Allreduce over every
/// node of the fabric.
struct JobSpec {
  /// Owning tenant, the unit of fairness accounting (>= 0).
  int tenant = 0;
  /// Vector elements to reduce (m). A zero-element job completes at
  /// dispatch without touching the fabric.
  long long elements = 0;
  ReduceOp op = ReduceOp::kSum;
  /// Larger = more urgent. Breaks ties within a tenant's queue only —
  /// fairness across tenants dominates priority, so one tenant cannot
  /// starve another with high-priority floods.
  int priority = 0;
  /// Virtual cycle the job arrives at. Submissions dated before the
  /// service's current clock are admitted at the clock instead.
  long long arrival_cycle = 0;
};

/// Lifecycle record of one submitted job (indexed by the id submit()
/// returned).
struct JobRecord {
  JobSpec spec;
  /// Admission control turned the job away (queue full at arrival).
  bool rejected = false;
  /// Every element delivered.
  bool completed = false;
  /// Cycle the job was admitted to the queue (== clamped arrival).
  long long admit_cycle = -1;
  /// Cycle its batch was dispatched, -1 if never dispatched.
  long long start_cycle = -1;
  /// Cycle its last element was delivered everywhere, -1 if not completed.
  long long finish_cycle = -1;
  /// Lane the job ran on, -1 if it never touched the fabric.
  int lane = -1;
  /// Jobs fused into the same run, 1 if it ran alone.
  int batch_jobs = 1;
};

/// Service-wide configuration.
struct ServiceConfig {
  SchedulerPolicy policy = SchedulerPolicy::kPartitionedBatched;
  /// Knobs of the underlying per-run simulations (engine choice, link
  /// model, background...). SimConfig::recorder here is the SERVICE's
  /// observability sink: the service emits job/batch/queue telemetry on
  /// the service virtual timeline; inner simulator runs always execute
  /// un-instrumented (their private timelines all start at cycle 0 and
  /// would interleave meaninglessly in one trace).
  simnet::SimConfig sim;
  /// Admission control: jobs arriving while this many are queued are
  /// rejected (records keep the evidence; the bench plots the drop rate
  /// under overload). Dispatched batches no longer count against it.
  int max_queue_jobs = 1024;
  /// Coalescer limit: a fused batch holds at most this many jobs (and at
  /// most kBatchMaxElements elements, service/batching.hpp).
  int batch_max_jobs = 16;
};

/// Cumulative service statistics, derived from the records at call time.
struct ServiceStats {
  int submitted = 0;
  int admitted = 0;
  int rejected = 0;
  int completed = 0;
  /// Fused runs issued (a solo job counts as a batch of one).
  int batches = 0;
  /// Jobs that shared a fused run with at least one other job.
  int coalesced_jobs = 0;
  /// Virtual cycle of the last delivery (0 when nothing completed).
  long long makespan_cycles = 0;
  /// Completed jobs per 1000 virtual cycles.
  double jobs_per_kcycle = 0.0;
  /// Nearest-rank percentiles of completion latency (finish - admit) over
  /// completed jobs; -1 when nothing completed.
  long long p50_cycles = -1;
  long long p99_cycles = -1;
  /// Fabric work: flits moved across all runs, and the fraction of the
  /// fabric's directed-link-cycle capacity they filled up to the makespan.
  long long total_flits = 0;
  double utilization = 0.0;
  /// Elements the resilient driver replayed on degraded plans, summed
  /// over batches (0 without a fault script).
  long long replayed_elements = 0;
  /// AND of values_correct over every simulated run.
  bool values_correct = true;
};

}  // namespace pfar::service
