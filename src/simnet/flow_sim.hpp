#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"

namespace pfar::simnet {

/// Flow-level fluid tier (SimEngine::kFlow, docs/simulation_engine.md).
///
/// Instead of moving flits, the run is integrated analytically in three
/// phases, following the warmup/measure/drain methodology of booksim-style
/// simulators:
///  * warmup — the pipeline-fill latency of each tree (depth hops of link
///    latency) before its stream reaches steady state;
///  * measure — a fluid timeline in which every active tree streams at its
///    max-min fair share of the directed links its VCs cross; whenever a
///    tree exhausts its elements it retires and the remaining rates are
///    recomputed on the freed capacity;
///  * drain — the retired stream's tail still needs depth hops to reach the
///    farthest receiver, which sets the per-tree finish cycle.
///
/// What is exact: per-directed-link flit totals (the same packets cross the
/// same tree links as in the cycle engines), num_vcs and the per-link /
/// per-port VC maxima, total_elements. What is approximate: cycles,
/// per-tree finish/first-delivery cycles and therefore aggregate_bandwidth
/// — validated against the cycle-accurate engines on small q within the
/// tolerances pinned by tests/flow_engine_test.cpp. values_correct is
/// vacuously true (no payloads are simulated). Fault scripts are rejected
/// with std::invalid_argument: losses and recovery are cycle-level
/// phenomena this tier cannot honor.
///
/// This tier never builds the per-VC fabric, so its memory footprint is
/// O(E + trees * N) and it reaches q >= 243 (N ~ 59k routers) where the
/// cycle engines are out of budget. Its structural pass and max-min fill
/// run in row-local passes whose SimResult is bit-identical to the tier as
/// first written, the test oracle oracle::run_reference_flow
/// (tests/flow_oracle_test.cpp). Expects trees validated as
/// AllreduceSimulator's constructor does, and `links` the parent-link
/// table that validation returns (trees::tree_links: entry t * n + v, -1
/// at the root).
SimResult run_flow_allreduce(const graph::Graph& topology,
                             const std::vector<trees::SpanningTree>& trees,
                             const std::vector<int>& links,
                             const SimConfig& config,
                             const std::vector<long long>& elements_per_tree);

namespace detail {

/// The progressive fill's saturation predicate for one directed link:
/// capacity `cap`, `fixed` load of frozen trees, `users` unfrozen users,
/// all rising at `level`. The one expression every round evaluates.
inline bool flow_link_saturated(double cap, double fixed, double level,
                                std::int32_t users, double eps) {
  const double u = static_cast<double>(users);
  return cap - fixed - level * u <= eps * u;
}

/// Whether a fill round may defer the fix-ups of its frozen trees on the
/// links of one class — capacity `cap`, no fixed load and `users` users at
/// the round's start — without changing a single saturation test. A frozen
/// tree's fix-up on a link takes one user away and adds `level` to its
/// fixed load; a tree still being tested on the link sees at most
/// users - 1 of them. Replays those prefixes in order and answers true iff
/// flow_link_saturated gives the start-of-round answer after each one.
bool flow_fixups_are_deferrable(double cap, double level, std::int32_t users,
                                double eps);

}  // namespace detail

}  // namespace pfar::simnet
