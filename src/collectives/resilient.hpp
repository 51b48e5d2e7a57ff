#pragma once

#include <map>
#include <optional>
#include <vector>

#include "graph/graph.hpp"
#include "model/congestion_model.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::collectives {

/// How run_resilient_allreduce replans after a detected failure: it
/// repacks trees greedily on the residual topology (core::degrade_repack,
/// see docs/resilience.md). The one value selects nothing; the enum and
/// ResilienceConfig::policy stay only because the frozen benchmark program
/// (perfbench/main.cpp) assigns them.
enum class RecoveryPolicy {
  kRepack,
};

/// Retry/backoff constants of the resilient driver. Loss detection itself
/// is configured on the simulator side (SimConfig::progress_timeout, which
/// must be > 0 for the driver to work).
struct ResilienceConfig {
  RecoveryPolicy policy = RecoveryPolicy::kRepack;
  /// Replay attempts after the initial run (attempt count <= 1 + retries).
  static constexpr int max_retries = 3;
  /// Cycles charged between a failed attempt and its replay (re-planning /
  /// re-synchronization cost), doubled on every further retry.
  static constexpr long long backoff_cycles = 256;
};

/// One simulated attempt (the initial run or a replay) in the recovery log.
struct AttemptStats {
  long long start_cycle = 0;      // global cycle the attempt began at
  long long cycles = 0;           // simulated cycles of this attempt
  int trees = 0;                  // trees in this attempt's plan
  long long elements = 0;         // elements assigned to this attempt
  long long elements_lost = 0;    // elements its failed trees did not finish
  double model_bandwidth = 0.0;   // Algorithm 1 aggregate of this plan
  long long detection_cycle = -1; // attempt-local first detection, -1 healthy
};

/// Outcome of a resilient Allreduce: what was lost, when it was detected,
/// what it cost to replay, and how much bandwidth the degraded plan keeps.
struct RecoveryStats {
  bool recovered = false;       // every element delivered in some attempt
  bool values_correct = false;  // all delivered values exact in all attempts
  int attempts = 0;
  /// Global cycle of the first loss detection, -1 if the run stayed healthy.
  long long detection_cycle = -1;
  /// Elements replayed on degraded plans (sum of replay assignments).
  long long chunks_replayed = 0;
  /// End-to-end cycles: all attempts plus retry backoff.
  long long total_cycles = 0;
  /// Algorithm 1 aggregate bandwidth of the final (successful) plan — the
  /// degradation benches plot this against the number of failed links.
  double degraded_aggregate_bandwidth = 0.0;
  /// Every link excluded by recovery: links down at an attempt's end and
  /// links that lost packets in flight.
  std::vector<graph::Edge> failed_links;
  std::vector<AttemptStats> attempt_log;
  /// Simulator result of the final attempt.
  simnet::SimResult final_sim;
};

/// Runs an m-element Allreduce over `trees`, reacting to failures injected
/// via `config.faults`: when the per-tree progress timeout cancels trees,
/// the driver consults core/resilience for a degraded plan on the original
/// topology minus every failed link, replays exactly the lost elements on
/// it (bounded retries with exponential backoff), and reports RecoveryStats.
///
/// Requires `config.progress_timeout > 0` (detection) and non-empty trees.
/// `resilience` selects nothing: its policy has one value and its retry
/// values are constants.
/// Unrecoverable situations — residual topology disconnected, retries
/// exhausted — fail loudly through a PFAR_REQUIRE contract violation; a
/// run never hangs past the simulator's max_cycles.
RecoveryStats run_resilient_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees, long long m,
    const simnet::SimConfig& config,
    const ResilienceConfig& resilience = {});

/// What one m-element Allreduce on a tree set costs the fabric.
struct RunCost {
  long long cycles = 0;
  /// Flits moved across all directed links (payload + headers); under
  /// recovery, those of the final attempt.
  long long flits = 0;
  /// Elements the resilient driver replayed on degraded plans.
  long long replayed = 0;
  /// Every element delivered, every delivered value exact.
  bool correct = true;
};

/// The memoized cost of Allreduces on one tree set — the shared answer to
/// "what does an m-element Allreduce on these trees cost" that the
/// bucketed schedules, the service's lanes and the training replay all
/// ask. Simulator runs are pure functions of (topology, trees, split,
/// config), so cost(m) runs once per distinct m: through the resilient
/// attempt loop when `resilience` is given and the config carries a
/// fault script, otherwise as one run of the core (run_planned_allreduce).
/// A run of the core that certified a steady period
/// (simnet::PeriodCertificate) becomes an anchor: a later m whose split
/// differs from an anchor's by k whole periods in every tree, and still
/// injects for a period after the anchor's verify cycle, is answered
/// exactly as the anchor's cycles + k * period and flits + k * flits per
/// period, without simulating. Only quiet, fault-free runs certify, so
/// nothing else is shifted. Memoized runs are uninstrumented
/// (config.recorder is dropped): a memo hit could not replay their events.
/// `topology` must outlive the object.
class TreeSetCost {
 public:
  /// `bandwidths` are the split weights (Theorem 5.1 over them); when
  /// omitted, the quiet Algorithm 1 of `trees`, computed on the first run.
  TreeSetCost(const graph::Graph& topology,
              std::vector<trees::SpanningTree> trees,
              const simnet::SimConfig& config,
              std::optional<ResilienceConfig> resilience = std::nullopt,
              std::optional<model::TreeBandwidths> bandwidths = std::nullopt);

  /// Cost of an m-element Allreduce; m = 0 is free and runs nothing.
  RunCost cost(long long m);

  /// How cost() answered so far (m = 0 aside): by simulating, from the
  /// memo of earlier answers, or shifted from an anchor's period.
  struct Answers {
    long long simulated = 0;
    long long memo = 0;
    long long shifted = 0;
  };
  const Answers& answers() const { return answers_; }

 private:
  struct Anchor {
    std::vector<long long> split;
    RunCost cost;
    simnet::PeriodCertificate period;
  };
  /// The cost of `split` shifted from the first anchor that answers it.
  std::optional<RunCost> shifted(const std::vector<long long>& split) const;

  const graph::Graph* topology_;
  std::vector<trees::SpanningTree> trees_;
  simnet::SimConfig config_;
  std::optional<ResilienceConfig> resilience_;
  std::optional<model::TreeBandwidths> bandwidths_;
  std::map<long long, RunCost> memo_;
  std::vector<Anchor> anchors_;
  Answers answers_;
};

}  // namespace pfar::collectives
