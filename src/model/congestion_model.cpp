#include "model/congestion_model.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/numeric.hpp"

namespace pfar::model {

TreeBandwidths compute_tree_bandwidths(
    const graph::Graph& g, const std::vector<trees::SpanningTree>& trees,
    double link_bandwidth, const std::vector<double>& capacity_scale) {
  if (link_bandwidth <= 0.0) {
    throw std::invalid_argument("compute_tree_bandwidths: bandwidth <= 0");
  }
  const int num_edges = g.num_edges();
  const int num_trees = static_cast<int>(trees.size());
  if (!capacity_scale.empty()) {
    if (capacity_scale.size() != static_cast<std::size_t>(num_edges)) {
      throw std::invalid_argument(
          "compute_tree_bandwidths: capacity_scale size != edges");
    }
    for (double s : capacity_scale) {
      if (!(s > 0.0) || s > 1.0) {
        throw std::invalid_argument(
            "compute_tree_bandwidths: scale outside (0, 1]");
      }
    }
  }

  // Per-tree edge-id lists (flat: num_trees rows of n-1 ids, each listing
  // its tree's edges by child vertex, the reference's order). A validated
  // tree has exactly one parentless vertex, so dropping the roots' -1
  // entries leaves exactly those rows.
  const int n = g.num_vertices();
  std::vector<int> tree_edges = trees::tree_links(g, trees);
  std::erase(tree_edges, -1);

  // Edge -> tree incidence in CSR form (rows ascending in tree id), so a
  // bottleneck edge reaches exactly the trees through it; row e's length
  // is the congestion C(e).
  std::vector<int> inc_offsets(static_cast<std::size_t>(num_edges + 1), 0);
  for (int id : tree_edges) ++inc_offsets[static_cast<std::size_t>(id + 1)];
  for (int e = 0; e < num_edges; ++e) inc_offsets[static_cast<std::size_t>(e + 1)] += inc_offsets[static_cast<std::size_t>(e)];
  std::vector<int> incidence(tree_edges.size());
  {
    std::vector<int> cursor(inc_offsets.begin(), inc_offsets.end() - 1);
    for (int t = 0; t < num_trees; ++t) {
      const int* row = tree_edges.data() + static_cast<std::size_t>(t) * static_cast<std::size_t>((n - 1));
      for (int s = 0; s < n - 1; ++s) incidence[static_cast<std::size_t>(cursor[static_cast<std::size_t>(row[s])]++)] = t;
    }
  }

  std::vector<char> tree_done(static_cast<std::size_t>(num_trees), 0);

  // Argmin segment tree over the cached ratios L(e)/C(e). A bottleneck
  // round touches only the edges of the trees it finalizes, so each round
  // is O(k * n * log E) for k finalized trees instead of a full O(E)
  // rescan. Descending left-first on ties returns the lowest edge id
  // among the minima — exactly what the reference's ascending strict-<
  // scan keeps. Ratios are cached from the identical division the
  // reference performs, so the selected bottlenecks (and thus every
  // share) are bit-identical. Per-edge state (L(e), C(e), and the cached
  // ratio leaf) shares one cache line; the solve loop is memory-bound, so
  // an edge touch costing one line instead of three is the difference.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct EdgeState {
    double remaining;
    double ratio;
    int congestion;
  };
  std::vector<EdgeState> state(static_cast<std::size_t>(num_edges));
  for (std::size_t e = 0; e < state.size(); ++e) {
    // L(e) = B * scale[e]; a scale of exactly 1.0 leaves B unchanged.
    const double budget = capacity_scale.empty()
                              ? link_bandwidth
                              : link_bandwidth * capacity_scale[e];
    const int c = inc_offsets[e + 1] - inc_offsets[e];
    state[e] = {budget, c > 0 ? budget / c : kInf, c};
  }
  int leaves = 1;
  while (leaves < num_edges) leaves <<= 1;
  // Internal nodes only; node c's value is inner[c] for c < leaves and
  // state[c - leaves].ratio (kInf past num_edges) at the leaf level.
  std::vector<double> inner(static_cast<std::size_t>(leaves), kInf);
  const auto val = [&](int c) {
    if (c < leaves) return inner[static_cast<std::size_t>(c)];
    const int e = c - leaves;
    return e < num_edges ? state[static_cast<std::size_t>(e)].ratio : kInf;
  };
  for (int i = leaves - 1; i >= 1; --i) {
    inner[static_cast<std::size_t>(i)] = std::min(val(2 * i), val(2 * i + 1));
  }
  const auto update = [&](int e) {
    const double nv =
        state[static_cast<std::size_t>(e)].congestion > 0 ? state[static_cast<std::size_t>(e)].remaining / state[static_cast<std::size_t>(e)].congestion
                                : kInf;
    if (state[static_cast<std::size_t>(e)].ratio == nv) return;
    state[static_cast<std::size_t>(e)].ratio = nv;
    // Climb only while the subtree minimum actually changes — in the
    // paper's near-uniform tree sets most updates stop at the first level.
    for (int i = (leaves + e) / 2; i >= 1; i /= 2) {
      const double m = std::min(val(2 * i), val(2 * i + 1));
      if (inner[static_cast<std::size_t>(i)] == m) break;
      inner[static_cast<std::size_t>(i)] = m;
    }
  };

  TreeBandwidths out;
  out.per_tree.assign(static_cast<std::size_t>(num_trees), 0.0);

  int active = num_trees;
  while (active > 0) {
    if (val(1) == kInf) {
      throw std::logic_error(
          "compute_tree_bandwidths: active trees but no congested edge");
    }
    int i = 1;
    while (i < leaves) i = val(2 * i) <= val(2 * i + 1) ? 2 * i : 2 * i + 1;
    const int e_min = i - leaves;
    const double share = state[static_cast<std::size_t>(e_min)].remaining / state[static_cast<std::size_t>(e_min)].congestion;
    for (int k = inc_offsets[static_cast<std::size_t>(e_min)]; k < inc_offsets[static_cast<std::size_t>(e_min + 1)]; ++k) {
      const int t = incidence[static_cast<std::size_t>(k)];
      if (tree_done[static_cast<std::size_t>(t)]) continue;
      out.per_tree[static_cast<std::size_t>(t)] = share;
      const int* row = tree_edges.data() + static_cast<std::size_t>(t) * static_cast<std::size_t>((n - 1));
      for (int s = 0; s < n - 1; ++s) {
        const int e = row[s];
        state[static_cast<std::size_t>(e)].remaining = std::max(0.0, state[static_cast<std::size_t>(e)].remaining - share);
        --state[static_cast<std::size_t>(e)].congestion;
        update(e);
      }
      tree_done[static_cast<std::size_t>(t)] = 1;
      --active;
    }
    state[static_cast<std::size_t>(e_min)].congestion = 0;  // removed from the residual network
    update(e_min);
  }

  for (double b : out.per_tree) out.aggregate += b;
  return out;
}

std::vector<long long> optimal_split(long long m, const TreeBandwidths& bw) {
  return util::apportion(m, bw.per_tree);
}

double optimal_polarfly_bandwidth(int q, double link_bandwidth) {
  return (q + 1) * link_bandwidth / 2.0;
}

double allreduce_rate_upper_bound(const graph::Graph& g,
                                  double link_bandwidth) {
  const int n = g.num_vertices();
  if (n < 2) {
    throw std::invalid_argument(
        "allreduce_rate_upper_bound: need at least 2 vertices");
  }
  if (link_bandwidth <= 0.0) {
    throw std::invalid_argument(
        "allreduce_rate_upper_bound: non-positive bandwidth");
  }
  const int deg_min = g.min_degree();
  if (deg_min <= 0) {
    throw std::invalid_argument(
        "allreduce_rate_upper_bound: graph has an isolated vertex");
  }
  const double spanning =
      static_cast<double>(g.num_edges()) / static_cast<double>(n - 1);
  return link_bandwidth * std::min(static_cast<double>(deg_min), spanning);
}

}  // namespace pfar::model
