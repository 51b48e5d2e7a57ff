#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "simnet/config.hpp"  // TrafficPattern (shared with BackgroundTraffic)
#include "util/rng.hpp"

namespace pfar::simnet {

/// Routing discipline.
enum class Routing {
  /// Deterministic shortest path (on PolarFly the 2-hop path is *unique*
  /// by Theorem 6.1, so minimal routing has no path diversity at all).
  kMinimal,
  /// Valiant load balancing: route minimally to a uniformly random
  /// intermediate node, then minimally to the destination. Doubles the
  /// path length but spreads adversarial patterns.
  kValiant,
};

/// Configuration of the packet-granularity virtual cut-through network
/// simulator (Section 4.4's router substrate, exercised with ordinary
/// unicast traffic instead of collective dataflow; supports the Section
/// 1.3 positioning of PolarFly as a low-diameter network).
struct TrafficConfig {
  TrafficPattern pattern = TrafficPattern::kUniform;
  Routing routing = Routing::kMinimal;
  /// Offered load: packet-generation probability per node per cycle.
  double injection_rate = 0.1;
  /// Packet length in flits; a packet occupies a link for this many cycles.
  int packet_flits = 4;
  /// Input buffer capacity per port, in packets (credit-based).
  int buffer_packets = 8;
  /// Wire latency per hop in cycles.
  int link_latency = 1;
  /// Target of the concentrated fraction under kHotspot. Must name a
  /// vertex of the simulated topology; run() rejects out-of-range ids
  /// through the contract layer instead of wrapping silently.
  int hotspot_node = 0;
  /// Fraction of traffic aimed at hotspot_node under kHotspot.
  double hotspot_fraction = 0.2;
  long long warmup_cycles = 3000;
  /// Stop after this many packets have been delivered post-warmup.
  long long measure_packets = 20000;
  long long max_cycles = 2'000'000;
  std::uint64_t seed = 1;
};

/// Measured behaviour at one offered load.
struct TrafficResult {
  /// Delivered packets per node per cycle during measurement (throughput).
  double throughput = 0.0;
  /// Average end-to-end packet latency (generation to ejection), cycles.
  double avg_latency = 0.0;
  /// Nearest-rank 99th-percentile latency (obsv::nearest_rank).
  long long p99_latency = 0;
  /// Average hop count of delivered packets.
  double avg_hops = 0.0;
  long long delivered = 0;
  /// True if the run hit max_cycles before delivering measure_packets —
  /// the network is saturated at this load.
  bool saturated = false;
};

/// The fixed destination map of TrafficPattern::kPermutation over `n`
/// nodes: a Fisher-Yates shuffle drawing from `rng`, then every
/// self-target bumped to the next node. TrafficSimulator::run draws it
/// first from its run generator; background_link_rates_ppm draws it from
/// a fresh generator seeded with BackgroundTraffic::seed, so both describe
/// the same pattern for the same seed.
std::vector<int> pattern_permutation(int n, util::Rng& rng);

/// Cycle-level simulator of an input-queued virtual cut-through router
/// network on an arbitrary topology: per-input-port packet FIFOs with
/// credit flow control, round-robin output arbitration, deterministic
/// shortest-path routing (lowest-id next hop; on PolarFly the 2-hop path
/// is unique by Theorem 6.1, so minimal routing is structural).
class TrafficSimulator {
 public:
  explicit TrafficSimulator(const graph::Graph& topology);

  TrafficResult run(const TrafficConfig& config) const;

 private:
  const graph::Graph& topology_;
  // next_hop_[dst * n + src]: neighbor of src toward dst.
  std::vector<int> next_hop_;
};

}  // namespace pfar::simnet
