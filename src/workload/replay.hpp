#pragma once

#include <cstdint>
#include <vector>

#include "collectives/resilient.hpp"
#include "core/planner.hpp"
#include "service/job.hpp"
#include "simnet/config.hpp"
#include "workload/trace.hpp"

namespace pfar::workload {

/// How the replayed iteration's gradient buckets reach the fabric
/// (docs/training_replay.md, "Communication backends").
enum class CommMode {
  /// Buckets become jobs of a persistent service::AllreduceService: one
  /// job per bucket, arrival = release cycle, scheduled onto the plan's
  /// link-disjoint lanes. The multi-lane path — buckets of one iteration
  /// reduce concurrently, and background traffic flows through every lane
  /// run.
  kService,
  /// Buckets run back-to-back on one tree set through a single memoized
  /// collectives::TreeSetCost — the single-job pipeline every bench before
  /// this layer measured. The mode that composes with the fault-injection
  /// layer (the resilient attempt loop when a FaultScript is present) or
  /// the congestion controller (`adaptive`), one at a time.
  kSingle,
};

/// Per-node compute heterogeneity. Replay is bulk-synchronous: every node
/// starts an iteration's compute together and a gradient bucket is only
/// released once the SLOWEST node has produced it, so the effective
/// slowdown of an iteration is the maximum node multiplier.
struct SkewSpec {
  /// Every node's compute is scaled by a seeded multiplier drawn uniformly
  /// from [1000, 1000 + skew_permille] permille. 0 = homogeneous nodes.
  int skew_permille = 0;
  /// `straggler_nodes` seeded distinct nodes additionally run at
  /// `straggler_permille` (>= 1000; 1000 = disabled). A straggler is a
  /// slow node the way a dead link is a FaultScript — the two compose.
  int straggler_nodes = 0;
  int straggler_permille = 1000;
  std::uint64_t seed = 7;
};

/// Full configuration of one training replay.
struct ReplayConfig {
  /// The trace to replay (synthesize_trace / parse_trace_json).
  TrainingTrace trace;
  /// Gradient bucket granularity (see bucketize).
  long long min_bucket_elements = 2048;
  /// true: a bucket's allreduce is scheduled the moment backprop releases
  /// it, overlapping communication with the rest of the backward pass.
  /// false: every bucket waits for the iteration's full compute phase —
  /// the no-overlap baseline the bench compares against.
  bool overlap = true;
  CommMode mode = CommMode::kService;
  /// Lane policy for kService (kSerial collapses to one full-tree lane).
  service::SchedulerPolicy policy = service::SchedulerPolicy::kPartitioned;
  /// Engine, link model, background traffic, faults, recorder. The
  /// recorder observes the WORKLOAD timeline (workload.* metrics, the
  /// kTrackWorkload track, and — in kService mode — the service's lane
  /// spans); inner simulator runs are never instrumented. Fault scripts
  /// require kSingle mode, where each bucket runs under
  /// run_resilient_allreduce; kService passes background traffic through
  /// to every lane run but rejects faults.
  simnet::SimConfig sim;
  SkewSpec skew;
  /// kSingle only, without a fault script: probe the congested fabric once
  /// per epoch (adapt::probe_and_adapt) and run every bucket on the adapted
  /// plan/split. The probe window is charged to the communication timeline
  /// ahead of iteration 0.
  bool adaptive = false;
  /// kSingle + faults: retry/backoff knobs of the resilient driver.
  collectives::ResilienceConfig resilience;
};

/// Timeline of one replayed SGD iteration, in global virtual cycles.
struct IterationRecord {
  long long start = 0;
  /// Slowest node finishes forward + backward compute.
  long long compute_done = 0;
  /// Last gradient bucket fully reduced (may precede compute_done when
  /// overlap hides communication entirely).
  long long comm_done = 0;
  /// max(compute_done, comm_done) — the BSP barrier; next iteration starts
  /// here.
  long long finish = 0;
  /// Union length of the iteration's collective intervals (wall cycles in
  /// which at least one bucket allreduce was in flight).
  long long comm_wall_cycles = 0;
  /// Lane-busy integral: sum of every batch's duration (>= wall when lanes
  /// run concurrently).
  long long comm_busy_cycles = 0;
  /// Wall cycles of communication NOT hidden behind compute:
  /// max(0, finish - compute_done).
  long long exposed_comm_cycles = 0;
};

/// Everything one replay measures. All fields except nothing are integer
/// virtual-cycle arithmetic over deterministic simulator results —
/// bit-identical across runs and PFAR_THREADS values.
struct ReplayResult {
  std::vector<IterationRecord> iterations;
  /// The bucketization applied to every iteration.
  std::vector<Bucket> buckets;
  /// Finish cycle of the last iteration — the headline metric.
  long long time_to_epoch = 0;
  /// Sums over iterations.
  long long compute_cycles = 0;
  long long comm_wall_cycles = 0;
  long long comm_busy_cycles = 0;
  long long exposed_comm_cycles = 0;
  /// 1 - exposed/wall: the fraction of communication wall time hidden
  /// behind compute (1.0 when the epoch moved no gradient). The bench's
  /// "collective-overlap efficiency".
  double overlap_efficiency = 1.0;
  /// Fabric work across every collective run of the epoch.
  long long total_flits = 0;
  /// kSingle + faults: elements replayed by the resilient driver.
  long long replayed_elements = 0;
  /// Adaptive probe window charged before iteration 0 (0 unless adaptive).
  long long probe_cycles = 0;
  /// The iteration-gating node and its effective permille multiplier.
  int slowest_node = 0;
  int slow_permille = 1000;
  bool values_correct = true;
};

/// Per-node compute multipliers (permille) under `skew` for `num_nodes`
/// nodes: the seeded uniform jitter with the straggler override applied.
/// Exposed for tests and the bench's straggler reporting.
std::vector<int> node_multipliers(const SkewSpec& skew, int num_nodes);

/// Replays `config.trace.iterations` bulk-synchronous SGD iterations of
/// the traced model over the planned fabric: per-iteration compute phases
/// scaled by the seeded node skew, gradient buckets released back-to-front
/// as backprop finishes them, and bucket allreduces overlapped with the
/// remaining compute (config.overlap) through the configured backend.
/// Deterministic end to end; see docs/training_replay.md for the model.
ReplayResult replay_training(const core::AllreducePlan& plan,
                             const ReplayConfig& config);

}  // namespace pfar::workload
