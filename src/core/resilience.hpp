#pragma once

#include <memory>
#include <vector>

#include "graph/graph.hpp"
#include "model/congestion_model.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::core {

/// Degraded-mode operation after link failures. The paper's constructions
/// assume a healthy ER_q; when links fail an operator has two options,
/// both provided here:
///  * keep the surviving subset of the original trees (zero replanning
///    cost, bandwidth drops by one link-share per lost tree), or
///  * repack spanning trees on the residual topology greedily (recovers
///    more bandwidth, loses the paper's congestion guarantees).
struct DegradedPlan {
  /// Residual topology (original vertices, failed links removed).
  std::shared_ptr<graph::Graph> topology;
  std::vector<trees::SpanningTree> trees;
  model::TreeBandwidths bandwidths;
};

/// The graph on `original`'s vertices over the links whose edge id is not
/// marked in `removed` (one entry per edge id of `original`), added in
/// edge-id order. Any spanning tree of the result is one of `original`.
/// Unlike remove_links it accepts a disconnected result.
graph::Graph residual_graph(const graph::Graph& original,
                            const std::vector<char>& removed);

/// Copy of `original` without the `failed` links. Throws if a failed link
/// does not exist or the residual graph is disconnected (an ER_q survives
/// far more failures than tree counts ever need — diameter-2, min degree q).
std::shared_ptr<graph::Graph> remove_links(const graph::Graph& original,
                                           const std::vector<graph::Edge>& failed);

/// The subset of `original_trees` untouched by the failures, in their
/// order. Throws std::invalid_argument unless every tree is a spanning
/// tree of `original` (trees::tree_links).
std::vector<trees::SpanningTree> surviving_trees(
    const graph::Graph& original,
    const std::vector<trees::SpanningTree>& original_trees,
    const std::vector<graph::Edge>& failed);

/// Degraded plan keeping surviving original trees.
DegradedPlan degrade_keep_surviving(
    const graph::Graph& original,
    const std::vector<trees::SpanningTree>& original_trees,
    const std::vector<graph::Edge>& failed);

/// Degraded plan repacking trees greedily on the residual topology, with
/// at most `max_trees` trees (-1 = as many as found).
DegradedPlan degrade_repack(const graph::Graph& original,
                            const std::vector<graph::Edge>& failed,
                            int max_trees = -1);

}  // namespace pfar::core
