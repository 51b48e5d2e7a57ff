// Test-only oracles for planning (library pfar_oracle): the seed Algorithm
// 1 (Section 5.2), the first logical-tree water-filling (Section 4.4) and
// the Algorithm 3 builders (Section 7.1), kept verbatim.
// model::compute_tree_bandwidths, collectives::logical_tree_bandwidths and
// trees::build_low_depth_trees[_even] must reproduce them bit for bit.
// Never linked into the product libraries.
#pragma once

#include <vector>

#include "collectives/logical.hpp"
#include "graph/graph.hpp"
#include "model/congestion_model.hpp"
#include "polarfly/erq.hpp"
#include "polarfly/layout.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::oracle {

/// Algorithm 1 as first written: each round scans every edge for the
/// bottleneck argmin L(e)/C(e) (lowest edge id on ties). Edge e starts
/// from `link_bandwidth * capacity_scale[e]`, or from `link_bandwidth`
/// when the scale is empty. Throws std::invalid_argument on B <= 0, a
/// scale of the wrong size, or a tree edge that is not a link of g.
model::TreeBandwidths compute_tree_bandwidths_reference(
    const graph::Graph& g, const std::vector<trees::SpanningTree>& trees,
    double link_bandwidth, const std::vector<double>& capacity_scale = {});

/// The logical-tree water-filling as first written: directed links get
/// dense ids in first-use order from an n x n table, every round rescans
/// every link for the bottleneck (lowest id on ties) and every tree for a
/// flow through it. Trees are not validated beyond their size.
collectives::LogicalBandwidths logical_tree_bandwidths_reference(
    const collectives::RoutedNetwork& net,
    const std::vector<collectives::LogicalTree>& trees,
    double link_bandwidth);

/// The seed single-threaded Algorithm 3 for odd q.
std::vector<trees::SpanningTree> build_low_depth_trees_reference(
    const polarfly::PolarFly& pf, const polarfly::Layout& layout);

/// The seed single-threaded even-q builder.
std::vector<trees::SpanningTree> build_low_depth_trees_even_reference(
    const polarfly::PolarFly& pf, int starter_index = 0);

}  // namespace pfar::oracle
