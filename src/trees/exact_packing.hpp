#pragma once

#include <vector>

#include "trees/spanning_tree.hpp"

namespace pfar::trees {

/// Exact maximum edge-disjoint spanning-tree packing (the Tutte /
/// Nash-Williams number), computed by matroid-union augmentation over k
/// graphic matroids (Roskind-Tarjan style): edges are inserted into k
/// forests, and when an edge is spanned everywhere an augmenting sequence
/// of forest swaps is searched breadth-first. k spanning trees exist iff
/// the k forests can absorb k(N-1) edges.
///
/// This gives an *independent* verification of the paper's Section 7.3
/// result: the exact packing number of ER_q equals floor((q+1)/2), the
/// same count the Hamiltonian construction achieves — and it upgrades the
/// generic-topology comparisons from the greedy heuristic to ground truth.
///
/// Returns the packed spanning trees (rooted at vertex 0). O(k E (E + N))
/// worst case; intended for graphs up to a few thousand edges.
std::vector<SpanningTree> exact_tree_packing(const graph::Graph& g);

}  // namespace pfar::trees
