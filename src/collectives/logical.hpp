#pragma once

#include <vector>

#include "collectives/routed.hpp"
#include "model/congestion_model.hpp"
#include "util/rng.hpp"

namespace pfar::collectives {

/// A *logically defined* aggregation tree (Section 4.4, SHARP-style): the
/// parent/child relation is declared over arbitrary node pairs and each
/// logical edge is realized at runtime by the routing algorithm as a
/// (possibly multi-hop) physical path. Unlike the paper's physically
/// embedded trees, nothing guarantees low congestion.
struct LogicalTree {
  int root = 0;
  std::vector<int> parent;  // -1 at root; parents need NOT be neighbors
};

/// Per-tree bandwidth of concurrently active logical trees, by Algorithm 1
/// over *directed physical links* (model::max_min_fair_shares, with the
/// used links as resources in first-use order). Each logical edge of tree
/// t contributes one reduction flow (child -> parent path) and one
/// broadcast flow (parent -> child path) at the tree's stream rate; a
/// link's congestion is the total flow multiplicity crossing it. With
/// physically embedded trees this is Algorithm 1's result bit for bit:
/// e.g. a link shared by two of the paper's low-depth trees carries one
/// tree's reduction plus the other's broadcast per direction (Lemma 7.8),
/// giving each tree B/2.
struct LogicalBandwidths : model::TreeBandwidths {
  /// Worst flow multiplicity on any directed link — the per-link state a
  /// SHARP-like device would need to track.
  int max_link_flows = 0;
};

/// Throws std::invalid_argument on B <= 0 and unless every tree is a
/// trees::SpanningTree (one root, no parent cycle) over net's vertices.
LogicalBandwidths logical_tree_bandwidths(const RoutedNetwork& net,
                                          const std::vector<LogicalTree>& trees,
                                          double link_bandwidth);

/// Builds `count` logically defined aggregation trees the way a
/// topology-agnostic collective library would: each tree is a complete
/// `arity`-ary tree over a random permutation of the nodes (SHARP-style
/// logical hierarchy, oblivious to the physical topology).
std::vector<LogicalTree> random_logical_trees(int num_nodes, int count,
                                              int arity, util::Rng& rng);

/// Depth of a logical tree in *physical hops* (each logical edge costs its
/// routed path length). Rejects a tree as logical_tree_bandwidths does.
int logical_depth(const RoutedNetwork& net, const LogicalTree& tree);

}  // namespace pfar::collectives
