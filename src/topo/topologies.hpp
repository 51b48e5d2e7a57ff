#pragma once

#include <string>
#include <vector>

#include "graph/graph.hpp"

namespace pfar::topo {

/// Generators for the direct topologies the paper positions PolarFly
/// against (Sections 1.2-1.3): tori, hypercubes and HyperX (a
/// one-dimensional HyperX is the fully-connected graph). Used by the comparison benches to contrast
/// multi-tree Allreduce potential (spanning-tree packing) across networks.

/// k-ary n-dimensional torus: dims[i] >= 2; wrap links are added only when
/// dims[i] >= 3 (for dims[i] == 2 the wrap would duplicate the other link).
graph::Graph torus(const std::vector<int>& dims);

/// d-dimensional hypercube: 2^d vertices, neighbors differ in one bit.
graph::Graph hypercube(int d);

/// HyperX: vertices are coordinate tuples; each dimension is fully
/// connected (all-to-all among vertices differing only in that axis).
graph::Graph hyperx(const std::vector<int>& dims);

/// Slim Fly (MMS graph) for a prime power q with q ≡ 1 (mod 4): the other
/// mathematically designed diameter-2 topology the paper cites (Section
/// 1.4). 2q^2 vertices in two groups: (0, x, y) connected within a column
/// when y - y' is a non-zero square, (1, m, c) when c - c' is a
/// non-square, and across groups when y = m*x + c. Network radix
/// (3q - 1) / 2, diameter 2.
graph::Graph slimfly(int q);

/// Upper bound on the number of edge-disjoint spanning trees:
/// floor(E / (N-1)). (Nash-Williams/Tutte give the exact packing number;
/// this edge-count bound is what tree-count comparisons need and is tight
/// for all the regular topologies compared here.)
int tree_packing_bound(const graph::Graph& g);

/// Summary statistics used by the comparison benches.
struct TopologyStats {
  std::string name;
  int nodes = 0;
  int edges = 0;
  int radix = 0;     // max degree
  int diameter = 0;  // -1 if disconnected
  int packing_bound = 0;
};

TopologyStats describe(const std::string& name, const graph::Graph& g);

}  // namespace pfar::topo
