#pragma once

#include <vector>

#include "collectives/routed.hpp"
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
/// style water-filling over *directed physical links*. Each logical edge of
/// tree t contributes one reduction flow (child -> parent path) and one
/// broadcast flow (parent -> child path) at the tree's stream rate; a
/// link's congestion is the total flow multiplicity crossing it. With
/// physically embedded trees this reproduces Algorithm 1's results
/// exactly: e.g. a link shared by two of the paper's low-depth trees
/// carries one tree's reduction plus the other's broadcast per direction
/// (Lemma 7.8), giving each tree B/2.
struct LogicalBandwidths {
  std::vector<double> per_tree;
  double aggregate = 0.0;
  /// Worst flow multiplicity on any directed link — the per-link state a
  /// SHARP-like device would need to track.
  int max_link_flows = 0;
};

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
/// routed path length).
int logical_depth(const RoutedNetwork& net, const LogicalTree& tree);

}  // namespace pfar::collectives
