#include "collectives/resilient.hpp"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "collectives/innetwork.hpp"
#include "core/resilience.hpp"
#include "model/congestion_model.hpp"
#include "obsv/recorder.hpp"
#include "util/contracts.hpp"

namespace pfar::collectives {
namespace {

[[noreturn]] void fail_unrecoverable(const std::string& why) {
  PFAR_REQUIRE(false && "run_resilient_allreduce: unrecoverable failure",
               why);
}

/// The per-tree progress timeout of an attempt on `trees`: the configured
/// one, raised to the plan's pipeline fill — 2 × (deepest tree + 1) hops of
/// link latency plus one packet's flits, up to the root and back down —
/// and clamped below stall_limit. Below the fill a healthy deep tree (a
/// repack on a residual topology can run hundreds of hops deep) is
/// canceled before its first delivery, and every retry loses the same
/// elements (docs/resilience.md).
long long attempt_timeout(const simnet::SimConfig& config,
                          const std::vector<trees::SpanningTree>& trees) {
  int deepest = 0;
  for (const auto& tree : trees) deepest = std::max(deepest, tree.depth());
  const long long fill =
      2LL * (deepest + 1) *
      (config.link_latency + config.packet_payload + config.packet_header_flits);
  return std::max(config.progress_timeout,
                  std::min(fill, config.stall_limit - 1));
}

/// The fault script an attempt that starts `elapsed` global cycles into the
/// original script sees: pending events shifted into the attempt's local
/// clock (clamped at 0), restricted to links the residual topology still
/// has.
simnet::FaultScript shift_script(const simnet::FaultScript& script,
                                 long long elapsed,
                                 const graph::Graph& residual) {
  simnet::FaultScript out;
  const int n = residual.num_vertices();
  for (const auto& ev : script.events) {
    if (ev.u < 0 || ev.u >= n || ev.v < 0 || ev.v >= n ||
        !residual.has_edge(ev.u, ev.v)) {
      continue;
    }
    simnet::FaultEvent shifted = ev;
    shifted.cycle = std::max<long long>(0, ev.cycle - elapsed);
    out.events.push_back(shifted);
  }
  return out;
}

/// The attempt loop of run_resilient_allreduce, with attempt 0's Algorithm
/// 1 result supplied by the caller (TreeSetCost computes it once per tree
/// set, not once per vector size).
// pfar-lint: allow(contract-coverage) every input is validated below via std::invalid_argument throws, which callers catch as part of the API
RecoveryStats recover(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& spanning_trees,
    const model::TreeBandwidths& bandwidths, long long m,
    const simnet::SimConfig& config) {
  if (spanning_trees.empty()) {
    throw std::invalid_argument("run_resilient_allreduce: no trees");
  }
  if (m < 0) {
    throw std::invalid_argument("run_resilient_allreduce: negative m");
  }
  if (config.progress_timeout <= 0) {
    throw std::invalid_argument(
        "run_resilient_allreduce: progress_timeout must be > 0 (loss "
        "detection is driven by the per-tree timeout)");
  }

  RecoveryStats stats;
  stats.values_correct = true;

  // Observability: the recorder travels to each attempt's simulator via the
  // copied config; the driver adds its own global-timeline events.
  obsv::Recorder* rec = config.recorder;
  std::uint32_t n_attempt = 0, n_replan = 0;
  if (rec != nullptr) {
    n_attempt = rec->trace.intern("attempt");
    n_replan = rec->trace.intern("replan");
    rec->trace.name_track(obsv::kTrackRecovery, "recovery");
  }

  // Current plan: starts as the caller's, replaced by degraded plans. The
  // shared_ptr keeps a residual topology alive across loop iterations.
  std::shared_ptr<graph::Graph> residual;
  const graph::Graph* cur_topology = &topology;
  std::vector<trees::SpanningTree> cur_trees = spanning_trees;

  std::vector<graph::Edge> accumulated_failed;
  long long remaining = m;
  long long backoff = ResilienceConfig::backoff_cycles;

  const int max_attempts = 1 + ResilienceConfig::max_retries;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    model::TreeBandwidths bw =
        attempt == 0 ? bandwidths
                     : model::compute_tree_bandwidths(*cur_topology,
                                                      cur_trees, 1.0);
    std::vector<long long> split = model::optimal_split(remaining, bw);

    simnet::SimConfig attempt_config = config;
    attempt_config.progress_timeout = attempt_timeout(config, cur_trees);
    attempt_config.faults =
        shift_script(config.faults, stats.total_cycles, *cur_topology);

    // Place this attempt's simulation events on the global recovery
    // timeline (cycle 0 of the attempt = total_cycles so far).
    if (rec != nullptr) rec->trace.set_time_offset(stats.total_cycles);

    InNetworkResult run = run_planned_allreduce(
        *cur_topology, cur_trees, std::move(split), std::move(bw),
        attempt_config);
    const simnet::SimResult& res = run.sim;

    ++stats.attempts;
    if (rec != nullptr) rec->metrics.add("recovery.attempts");
    if (!res.values_correct) stats.values_correct = false;

    AttemptStats log;
    log.start_cycle = stats.total_cycles;
    log.cycles = res.cycles;
    log.trees = static_cast<int>(cur_trees.size());
    log.elements = remaining;
    log.model_bandwidth = run.predicted.aggregate;
    if (attempt > 0) {
      stats.chunks_replayed += remaining;
      if (rec != nullptr) {
        rec->metrics.add("recovery.chunks_replayed", remaining);
      }
    }

    // Tally what the failed trees did not finish and when the first
    // failure of this attempt was detected.
    const long long lost = undelivered_elements(run);
    long long first_detect = -1;
    for (std::size_t t = 0; t < res.tree_failed.size(); ++t) {
      if (res.tree_failed[t] &&
          (first_detect < 0 || res.tree_fail_cycle[t] < first_detect)) {
        first_detect = res.tree_fail_cycle[t];
      }
    }
    log.elements_lost = lost;
    log.detection_cycle = first_detect;
    stats.attempt_log.push_back(log);
    if (first_detect >= 0 && stats.detection_cycle < 0) {
      stats.detection_cycle = stats.total_cycles + first_detect;
    }
    stats.total_cycles += res.cycles;

    if (rec != nullptr) {
      rec->trace.set_time_offset(0);
      rec->trace.complete(log.start_cycle, res.cycles, n_attempt,
                          obsv::kTrackRecovery, {"attempt", attempt},
                          {"lost", lost});
    }

    if (lost == 0) {
      stats.recovered = true;
      stats.degraded_aggregate_bandwidth = run.predicted.aggregate;
      stats.final_sim = std::move(run.sim);
      if (rec != nullptr) {
        rec->metrics.hwm("recovery.total_cycles", stats.total_cycles);
        if (stats.detection_cycle >= 0) {
          rec->metrics.hwm("recovery.detection_cycle", stats.detection_cycle);
        }
      }
      return stats;
    }

    // Exclude every link implicated in this attempt: scripted downs still
    // in effect plus every link that lost packets in flight, even one that
    // came back up before the attempt ended.
    for (const auto& e : res.links_down) accumulated_failed.push_back(e);
    for (std::size_t d = 0; d < res.link_dropped_flits.size(); ++d) {
      if (res.link_dropped_flits[d] > 0) {
        accumulated_failed.push_back(
            cur_topology->edges()[d / 2]);
      }
    }
    std::sort(accumulated_failed.begin(), accumulated_failed.end());
    accumulated_failed.erase(
        std::unique(accumulated_failed.begin(), accumulated_failed.end()),
        accumulated_failed.end());

    if (attempt + 1 >= max_attempts) break;

    // Replan on the original topology minus everything failed so far.
    try {
      core::DegradedPlan plan =
          core::degrade_repack(topology, accumulated_failed);
      residual = plan.topology;
      cur_trees = std::move(plan.trees);
    } catch (const std::runtime_error& e) {
      // remove_links: residual graph disconnected.
      fail_unrecoverable(e.what());
    }
    cur_topology = residual.get();
    remaining = lost;
    stats.failed_links = accumulated_failed;
    if (rec != nullptr) {
      rec->trace.instant(
          stats.total_cycles, n_replan, obsv::kTrackRecovery,
          {"failed_links",
           static_cast<long long>(accumulated_failed.size())},
          {"trees", static_cast<long long>(cur_trees.size())});
    }
    stats.total_cycles += backoff;
    backoff *= 2;
  }

  stats.failed_links = accumulated_failed;
  fail_unrecoverable("retries exhausted with " +
                     std::to_string(remaining) + " elements undelivered");
}

}  // namespace

// pfar-lint: allow(contract-coverage) recover() validates every input via std::invalid_argument
RecoveryStats run_resilient_allreduce(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& spanning_trees, long long m,
    const simnet::SimConfig& config, const ResilienceConfig& /*resilience*/) {
  return recover(topology, spanning_trees,
                 model::compute_tree_bandwidths(topology, spanning_trees, 1.0),
                 m, config);
}

TreeSetCost::TreeSetCost(const graph::Graph& topology,
                         std::vector<trees::SpanningTree> trees,
                         const simnet::SimConfig& config,
                         std::optional<ResilienceConfig> resilience,
                         std::optional<model::TreeBandwidths> bandwidths)
    : topology_(&topology),
      trees_(std::move(trees)),
      config_(config),
      resilience_(resilience),
      bandwidths_(std::move(bandwidths)) {
  PFAR_REQUIRE(!trees_.empty());
  PFAR_REQUIRE(!bandwidths_ || bandwidths_->per_tree.size() == trees_.size(),
               trees_.size());
  config_.recorder = nullptr;
}

RunCost TreeSetCost::cost(long long m) {
  PFAR_REQUIRE(m >= 0, m);
  if (m == 0) return {};
  const auto hit = memo_.find(m);
  if (hit != memo_.end()) {
    ++answers_.memo;
    return hit->second;
  }
  if (!bandwidths_) {
    bandwidths_ = model::compute_tree_bandwidths(*topology_, trees_, 1.0);
  }
  RunCost cost;
  if (resilience_ && !config_.faults.empty()) {
    const RecoveryStats recovery =
        recover(*topology_, trees_, *bandwidths_, m, config_);
    cost.cycles = recovery.total_cycles;
    cost.flits = total_flits(recovery.final_sim);
    cost.replayed = recovery.chunks_replayed;
    cost.correct = recovery.recovered && recovery.values_correct;
    ++answers_.simulated;
  } else {
    std::vector<long long> split = model::optimal_split(m, *bandwidths_);
    if (const std::optional<RunCost> answer = shifted(split)) {
      cost = *answer;
      ++answers_.shifted;
    } else {
      const InNetworkResult run =
          run_planned_allreduce(*topology_, trees_, split, *bandwidths_,
                                config_);
      cost.cycles = run.sim.cycles;
      cost.flits = total_flits(run.sim);
      cost.correct = run.sim.values_correct && undelivered_elements(run) == 0;
      ++answers_.simulated;
      if (run.period) anchors_.push_back({std::move(split), cost, *run.period});
    }
  }
  PFAR_ENSURE(cost.cycles > 0 && cost.flits >= 0, m, cost.cycles, cost.flits);
  memo_.emplace(m, cost);
  return cost;
}

std::optional<RunCost> TreeSetCost::shifted(
    const std::vector<long long>& split) const {
  PFAR_REQUIRE(split.size() == trees_.size(), split.size(), trees_.size());
  for (const Anchor& anchor : anchors_) {
    const simnet::PeriodCertificate& p = anchor.period;
    // k: the whole periods every tree's share moved by; a tree that did
    // not move in the period keeps its share.
    std::optional<long long> k;
    bool whole = true;
    for (std::size_t t = 0; whole && t < split.size(); ++t) {
      const long long diff = split[t] - anchor.split[t];
      const long long e = p.elements_per_period[t];
      if (e == 0 || diff % e != 0) {
        whole = diff == 0 && e == 0;
      } else {
        whole = !k || *k == diff / e;
        k = diff / e;
      }
    }
    if (!whole || !k || p.periods_left + *k < 1) continue;
    RunCost cost = anchor.cost;
    cost.cycles += *k * p.period;
    cost.flits += *k * p.flits_per_period;
    // A run past the deadline is simulated, so it throws as it always has.
    if (cost.cycles > config_.max_cycles) continue;
    return cost;
  }
  return std::nullopt;
}

}  // namespace pfar::collectives
