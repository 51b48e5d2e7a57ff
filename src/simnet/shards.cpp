#include <algorithm>
#include <climits>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "simnet/sim_internal.hpp"
#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace pfar::simnet {
namespace detail {

// ---------------------------------------------------------------------------
// Intra-run sharding (SimConfig::shard_threads, fast-forward engine only).
// Trees are grouped into link-disjoint components: trees sharing any
// physical edge always land in the same group, so two groups never have a
// VC on the same directed link and exchange no packets, credits, grants or
// token-bucket state. Each group therefore runs in its own Fabric (built on
// the FULL topology, preserving global directed-link ids and — via
// Fabric::tree_gid — global packet values) and the per-group results merge
// into exactly the serial run's: per-tree fields scatter by global index,
// per-link counters add over disjoint supports, maxima/sums combine, and
// the run's exit cycle is the max of the group exit cycles (each engine
// exits at its last delivery cycle + 1). Bit-identity across every thread
// count is pinned by tests/sharded_determinism_test.cpp. A run whose
// groups fail (deadlock or cycle limit) runs serially instead, so it
// throws exactly what the serial run throws, or succeeds like it.
//
// Public (docs/service_layer.md): the same partition is the allocation
// unit of the multi-tenant service scheduler — two jobs on different
// groups time nothing of each other, so the service may run them on
// independent virtual timelines exactly.
// ---------------------------------------------------------------------------

std::vector<std::vector<int>> tree_groups(const graph::Graph& topology,
                                          int num_trees,
                                          const std::vector<int>& links) {
  const int n = topology.num_vertices();
  std::vector<int> uf(static_cast<std::size_t>(num_trees));
  for (int t = 0; t < num_trees; ++t) uf[static_cast<std::size_t>(t)] = t;
  const auto find = [&](int x) {
    while (uf[static_cast<std::size_t>(x)] != x) {
      uf[static_cast<std::size_t>(x)] =
          uf[static_cast<std::size_t>(uf[static_cast<std::size_t>(x)])];
      x = uf[static_cast<std::size_t>(x)];
    }
    return x;
  };
  std::vector<int> edge_owner(static_cast<std::size_t>(topology.num_edges()),
                              -1);
  for (int t = 0; t < num_trees; ++t) {
    for (int v = 0; v < n; ++v) {
      const int id = links[static_cast<std::size_t>(t) *
                               static_cast<std::size_t>(n) +
                           static_cast<std::size_t>(v)];
      if (id < 0) continue;  // the root
      const std::size_t e = static_cast<std::size_t>(id);
      if (edge_owner[e] < 0) {
        edge_owner[e] = t;
      } else {
        const int a = find(edge_owner[e]);
        const int b = find(t);
        if (a != b) uf[static_cast<std::size_t>(std::max(a, b))] = std::min(a, b);
      }
    }
  }
  std::vector<int> group_of(static_cast<std::size_t>(num_trees), -1);
  std::vector<std::vector<int>> groups;
  for (int t = 0; t < num_trees; ++t) {
    const std::size_t r = static_cast<std::size_t>(find(t));
    if (group_of[r] < 0) {
      group_of[r] = static_cast<int>(groups.size());
      groups.emplace_back();
    }
    groups[static_cast<std::size_t>(group_of[r])].push_back(t);
  }
  // The groups partition the tree set: every tree lands in exactly one.
  std::size_t grouped = 0;
  for (const auto& g : groups) grouped += g.size();
  PFAR_ENSURE(grouped == static_cast<std::size_t>(num_trees), grouped,
              num_trees);
  return groups;
}

namespace {

// One certificate for a sharded run from its groups' own: every group
// that ran must have one. Group g's period P_g repeats P / P_g times in
// the combined period P = lcm(P_g), so its trees' elements and its flits
// per period scale by that factor, and a shift of k combined periods is
// k * P / P_g of g's: periods_left is the largest that keeps every group's
// periods_left + k * P / P_g >= 1. Every group's exit moves by k * P, and
// so does the run's (their maximum). Groups with nothing to simulate exit
// at 0 and stay there.
std::optional<PeriodCertificate> merge_certificates(
    const std::vector<std::vector<int>>& groups,
    const std::vector<long long>& sub_cycles,
    const std::vector<std::optional<PeriodCertificate>>& sub_cert) {
  constexpr long long kMaxPeriod = 1LL << 20;
  long long period = 1;
  std::size_t num_trees = 0;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    num_trees += groups[g].size();
    if (sub_cycles[g] == 0) continue;
    if (!sub_cert[g]) return std::nullopt;
    period = std::lcm(period, sub_cert[g]->period);
    if (period > kMaxPeriod) return std::nullopt;
  }
  PeriodCertificate cert;
  cert.period = period;
  cert.elements_per_period.assign(num_trees, 0);
  cert.periods_left = LLONG_MAX;
  for (std::size_t g = 0; g < groups.size(); ++g) {
    if (sub_cycles[g] == 0) continue;
    const PeriodCertificate& c = *sub_cert[g];
    const long long scale = period / c.period;
    cert.verify_cycle = std::max(cert.verify_cycle, c.verify_cycle);
    cert.flits_per_period += scale * c.flits_per_period;
    cert.periods_left =
        std::min(cert.periods_left, 1 + (c.periods_left - 1) / scale);
    for (std::size_t i = 0; i < groups[g].size(); ++i) {
      cert.elements_per_period[static_cast<std::size_t>(groups[g][i])] =
          scale * c.elements_per_period[i];
    }
  }
  return cert;
}

}  // namespace

// pfar-lint: allow(contract-coverage) internal to simnet; the links arrive validated by detail::validate_simulation and the groups by tree_groups, the trees by SpanningTree's constructor
long long run_sharded(const graph::Graph& topology,
                      const std::vector<trees::SpanningTree>& trees,
                      const std::vector<int>& links, const SimConfig& config,
                      const std::vector<long long>& elements_per_tree,
                      const std::vector<std::vector<int>>& groups,
                      SimResult& result,
                      std::optional<PeriodCertificate>* cert) {
  const int num_groups = static_cast<int>(groups.size());
  std::vector<SimResult> sub(static_cast<std::size_t>(num_groups));
  std::vector<long long> sub_cycles(static_cast<std::size_t>(num_groups), 0);
  std::vector<std::optional<PeriodCertificate>> sub_cert(
      static_cast<std::size_t>(num_groups));
  // Every group receives the FULL fault script: an event on another
  // group's edge flips a link no local VC crosses, which is a no-op (the
  // serial run behaves identically for that group's trees).
  util::parallel_for(
      config.shard_threads, num_groups, [&](int g) {
        const std::vector<int>& gids =
            groups[static_cast<std::size_t>(g)];
        std::vector<long long> sub_elements;
        sub_elements.reserve(gids.size());
        for (int t : gids) {
          sub_elements.push_back(
              elements_per_tree[static_cast<std::size_t>(t)]);
        }
        // The group's own prologue; its loop runs unobserved (sharding
        // implies no Recorder) and the merge below is its epilogue.
        detail::RunContext run(topology, config, sub_elements);
        const Fabric fabric =
            build_fabric(topology, trees, links, run.result, &gids);
        if (run.total_target > 0) {
          sub_cycles[static_cast<std::size_t>(g)] = run_fast_loop(
              fabric, config, sub_elements, run.result, run.tree_remaining,
              run.total_target, run.fault, run.bg_rates, nullptr,
              cert != nullptr ? &sub_cert[static_cast<std::size_t>(g)]
                              : nullptr);
        }
        sub[static_cast<std::size_t>(g)] = std::move(run.result);
      });

  // Deterministic merge, in group order (though every combiner below is
  // order-independent: scatter to disjoint indices, sums, maxima, ANDs).
  long long cycles = 0;
  for (int g = 0; g < num_groups; ++g) {
    const std::size_t gi = static_cast<std::size_t>(g);
    cycles = std::max(cycles, sub_cycles[gi]);
    const SimResult& r = sub[gi];
    const std::vector<int>& gids = groups[gi];
    for (std::size_t i = 0; i < gids.size(); ++i) {
      const std::size_t t = static_cast<std::size_t>(gids[i]);
      result.tree_finish_cycle[t] = r.tree_finish_cycle[i];
      result.tree_first_delivery[t] = r.tree_first_delivery[i];
      result.tree_failed[t] = r.tree_failed[i];
      result.tree_fail_cycle[t] = r.tree_fail_cycle[i];
      result.tree_completed[t] = r.tree_completed[i];
    }
    result.max_vc_occupancy =
        std::max(result.max_vc_occupancy, r.max_vc_occupancy);
    result.values_correct = result.values_correct && r.values_correct;
    result.dropped_packets += r.dropped_packets;
    result.dropped_flits += r.dropped_flits;
    result.canceled_packets += r.canceled_packets;
    result.canceled_flits += r.canceled_flits;
    for (std::size_t d = 0; d < r.link_flits.size(); ++d) {
      result.link_flits[d] += r.link_flits[d];
      result.link_dropped_flits[d] += r.link_dropped_flits[d];
      // Disjoint supports: exactly one group touches each VC-carrying
      // link, so max == sum here. Background counts are windowed per
      // group and normalized to the global exit cycle by the closed-form
      // pass in run() (background + faults forces a serial run).
      result.link_queue_hwm[d] =
          std::max(result.link_queue_hwm[d], r.link_queue_hwm[d]);
      result.link_bg_flits[d] += r.link_bg_flits[d];
    }
  }
  if (cert != nullptr) *cert = merge_certificates(groups, sub_cycles, sub_cert);
  return cycles;
}

}  // namespace detail

// pfar-lint: allow(contract-coverage) thin delegation; trees::tree_links validates every tree edge via std::invalid_argument throws
std::vector<std::vector<int>> link_disjoint_tree_groups(
    const graph::Graph& topology,
    const std::vector<trees::SpanningTree>& trees) {
  return detail::tree_groups(topology, static_cast<int>(trees.size()),
                             trees::tree_links(topology, trees));
}

}  // namespace pfar::simnet
