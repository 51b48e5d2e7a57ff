#pragma once

#include <vector>

#include "polarfly/erq.hpp"
#include "polarfly/layout.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::trees {

/// Algorithm 3 (Section 7.1): builds q spanning trees of PolarFly, one
/// rooted at each cluster center, with depth <= 3 (Theorem 7.5) and
/// worst-case link congestion 2 (Theorem 7.6). The trees additionally
/// satisfy Lemma 7.8: reduction traffic on any shared link flows in
/// opposite directions for the two trees, so a router port carries at most
/// one reduction per direction.
///
/// Tree T_i structure (Figure 3):
///   level 0: center v_i of cluster C_i;
///   level 1: all neighbors of v_i (the rest of C_i, the starter quadric w
///            and the non-starter quadric w_i);
///   level 2: everything reachable from level-1 vertices except via w
///            (remaining quadrics and non-center vertices of other
///            clusters);
///   level 3: the other cluster centers v_j, each attached by an edge
///            popped from the shared available-edge pool E_a.
///
/// Fast path: the per-tree level-1/2 expansion and the final SpanningTree
/// construction are independent across trees and fan out over a
/// util::ThreadPool (`threads` <= 0 means util::default_threads()); only
/// the cheap level-3 attachments, which consume the shared pool E_a, run
/// sequentially in tree order. Deterministic: the result is bit-identical
/// to the seed single-threaded builder for every thread count (pinned by
/// tests against the copy kept in tests/oracle/reference_planning.hpp).
std::vector<SpanningTree> build_low_depth_trees(const polarfly::PolarFly& pf,
                                                const polarfly::Layout& layout,
                                                int threads = 0);

/// Even-q analogue of Algorithm 3 (the paper states a "conceptually
/// similar layout and Allreduce solution for even q" exists but does not
/// publish it; this is our reconstruction, verified empirically).
///
/// Even-characteristic structure (see tests/evenq_test.cpp): the q+1
/// quadrics are collinear, a unique nucleus neighbors all of them, and
/// every other non-quadric neighbors exactly one quadric. The starter
/// quadric w therefore has q-1 non-nucleus neighbors, whose closed
/// neighborhoods partition the non-quadric, non-nucleus vertices into
/// q-1 clusters of size q+1 (uniqueness of 2-paths makes them disjoint).
///
/// One tree per cluster center: level 1 covers the cluster and w, level 2
/// expands the non-quadric level-1 vertices, and the leftovers (other
/// centers, the nucleus, remaining quadrics) attach through a shared
/// available-edge pool as in Algorithm 3. The result — verified by tests
/// for q in {4, 8, 16, 32} and by the Figure 5a bench up to q = 128 — is
/// q-1 spanning trees with depth <= 3, congestion <= 2 and the Lemma 7.8
/// opposite-flow property, for aggregate bandwidth >= (q-1)B/2 (optimal
/// is (q+1)B/2).
///
/// Same parallel decomposition and determinism contract as
/// build_low_depth_trees.
std::vector<SpanningTree> build_low_depth_trees_even(
    const polarfly::PolarFly& pf, int starter_index = 0, int threads = 0);

}  // namespace pfar::trees
