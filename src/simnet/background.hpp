#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "simnet/config.hpp"

namespace pfar::simnet {

/// Steady-state background load per *directed* link, in parts-per-million
/// of a flit per cycle (1'000'000 = one flit/cycle). Index: directed link
/// id `2 * edge_id + (src > dst)`, the same encoding the allreduce engines
/// use for their token buckets.
///
/// The pattern's (src, dst) flow matrix is routed over deterministic
/// minimal paths — the identical per-destination BFS next-hop choice
/// TrafficSimulator builds (first discovery in ascending-neighbor order) —
/// and each flow's offered rate accumulates onto every directed link of
/// its path. All arithmetic is integer (ppm), so the result is exact and
/// machine-independent; the engines replay it as a deterministic drain
/// sequence (docs/congestion_adaptation.md, "Determinism").
///
/// Per-link rates are clamped to 90% of the directed link's one flit per
/// cycle (900'000 ppm) so an oversubscribed pattern degrades the collective
/// instead of starving it outright.
std::vector<long long> background_link_rates_ppm(const graph::Graph& topology,
                                                 const BackgroundTraffic& bg);

}  // namespace pfar::simnet
