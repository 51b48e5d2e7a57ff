#pragma once

#include <vector>

#include "graph/graph.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::model {

/// Output of Algorithm 1 (Performance under Congestion, Section 5.2).
struct TreeBandwidths {
  /// B_i for each input tree, in elements (or bytes) per unit time.
  std::vector<double> per_tree;
  /// Sum of B_i — the maximum achievable Allreduce bandwidth of the
  /// embedding (Theorem 5.1).
  double aggregate = 0.0;
};

/// Flow -> resource rows in CSR form: flow t crosses resources[offsets[t]
/// .. offsets[t+1]), each at most once, carrying multiplicity[k] >= 1
/// units of its rate on resources[k]; an empty multiplicity means all 1.
struct FlowRows {
  std::vector<int> offsets{0};
  std::vector<int> resources;
  std::vector<int> multiplicity;
};

/// The one water-filling loop of Algorithm 1 (Section 5.2): max-min fair
/// flow rates (per_tree[t] for flow t). Resource r in [0, num_resources)
/// starts with budget capacity * capacity_scale[r] (capacity when the
/// scale is empty, so a uniform network stores no per-resource budget);
/// each round the bottleneck (lowest budget / multiplicity crossing it,
/// lowest id on ties) fixes the rate of every flow through it, and those
/// rates are charged to every resource the flows cross. Requires
/// well-formed rows and scale (PFAR_REQUIRE); throws std::logic_error if a
/// flow crosses no resource.
TreeBandwidths max_min_fair_shares(
    int num_resources, const FlowRows& rows, double capacity,
    const std::vector<double>& capacity_scale = {});

/// Runs Algorithm 1 on a set of embedded Allreduce trees: the resources
/// of max_min_fair_shares are g's edge ids, with capacity the link
/// bandwidth B, and tree t's row is its n-1 edges (trees::tree_links). The
/// result is independent of tie-breaking among bottleneck edges (asserted
/// by tests).
///
/// A non-empty `capacity_scale` (one entry per edge id, each in (0, 1])
/// makes the network capacitated: edge e starts from B * scale[e]. The
/// adaptive controller passes the share of each link background traffic
/// leaves free; all scales 1.0 give the uniform result bit for bit.
///
/// Bit-identical to the seed per-edge scan in
/// tests/oracle/reference_planning.hpp, pinned by tests. Throws
/// std::invalid_argument on B <= 0, on a malformed scale, and unless
/// every tree spans exactly g's vertices over links of g.
TreeBandwidths compute_tree_bandwidths(
    const graph::Graph& g, const std::vector<trees::SpanningTree>& trees,
    double link_bandwidth, const std::vector<double>& capacity_scale = {});

/// Theorem 5.1 optimal sub-vector distribution: m_i = m * B_i / sum(B),
/// rounded to integers summing to m by largest remainder.
std::vector<long long> optimal_split(long long m, const TreeBandwidths& bw);

/// Corollary 7.1: the optimal bidirectional in-network Allreduce bandwidth
/// of PolarFly ER_q is (q + 1) * B / 2.
double optimal_polarfly_bandwidth(int q, double link_bandwidth);

/// Topology-generic Allreduce computation-rate upper bound in the style of
/// Zhou & Sun ("On the Computation Rate of All-Reduce", PAPERS.md), for
/// link-uniform bidirectional bandwidth B. Two cut arguments, the minimum
/// of which bounds any in-network aggregation schedule:
///  * per-node cut: node v's own operand stream must leave v at full rate
///    and the reduced result must re-enter it, so the rate cannot exceed
///    deg(v) * B for any v — in particular min-degree * B;
///  * spanning-flow: every reduced-and-broadcast element crosses at least
///    N - 1 directed links on the way up and N - 1 on the way down, while
///    the fabric moves at most 2 * E * B flits per cycle, giving
///    E * B / (N - 1).
/// On PolarFly the second term is (q+1)/2 * N/(N-1) * B — Corollary 7.1's
/// (q+1)B/2 asymptotically — and it upper-bounds Algorithm 1's aggregate
/// on every topology (pfar_audit checks this). Reported next to
/// alg1_bw/sim_bw for flow-tier runs as the optimality yardstick.
double allreduce_rate_upper_bound(const graph::Graph& g,
                                  double link_bandwidth);

}  // namespace pfar::model
