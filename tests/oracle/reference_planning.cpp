#include "oracle/reference_planning.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"

namespace pfar::oracle {

model::TreeBandwidths compute_tree_bandwidths_reference(
    const graph::Graph& g, const std::vector<trees::SpanningTree>& trees,
    double link_bandwidth, const std::vector<double>& capacity_scale) {
  if (link_bandwidth <= 0.0) {
    throw std::invalid_argument("compute_tree_bandwidths: bandwidth <= 0");
  }
  const int num_edges = g.num_edges();
  const int num_trees = static_cast<int>(trees.size());
  if (!capacity_scale.empty() &&
      capacity_scale.size() != static_cast<std::size_t>(num_edges)) {
    throw std::invalid_argument(
        "compute_tree_bandwidths: capacity_scale size != edges");
  }

  // L(e) = B * scale[e], with B * 1.0 exactly B on the uniform network.
  std::vector<double> remaining =
      capacity_scale.empty()
          ? std::vector<double>(static_cast<std::size_t>(num_edges), 1.0)
          : capacity_scale;
  for (double& b : remaining) b *= link_bandwidth;

  // Per-tree edge-id lists and per-edge congestion C(e).
  std::vector<std::vector<int>> tree_edges(static_cast<std::size_t>(num_trees));
  std::vector<int> congestion(static_cast<std::size_t>(num_edges), 0);
  for (int t = 0; t < num_trees; ++t) {
    for (const auto& e : trees[static_cast<std::size_t>(t)].edges()) {
      const int id = g.edge_id(e.u, e.v);
      if (id < 0) {
        throw std::invalid_argument(
            "compute_tree_bandwidths: tree edge not in graph");
      }
      tree_edges[static_cast<std::size_t>(t)].push_back(id);
      ++congestion[static_cast<std::size_t>(id)];
    }
  }

  std::vector<char> edge_removed(static_cast<std::size_t>(num_edges), 0);
  std::vector<char> tree_done(static_cast<std::size_t>(num_trees), 0);

  model::TreeBandwidths out;
  out.per_tree.assign(static_cast<std::size_t>(num_trees), 0.0);

  int active = num_trees;
  while (active > 0) {
    // Bottleneck edge: argmin L(e)/C(e) among edges still carrying trees.
    int e_min = -1;
    double best = std::numeric_limits<double>::infinity();
    for (int e = 0; e < num_edges; ++e) {
      if (edge_removed[static_cast<std::size_t>(e)] || congestion[static_cast<std::size_t>(e)] == 0) continue;
      const double ratio = remaining[static_cast<std::size_t>(e)] / congestion[static_cast<std::size_t>(e)];
      if (ratio < best) {
        best = ratio;
        e_min = e;
      }
    }
    if (e_min < 0) {
      throw std::logic_error(
          "compute_tree_bandwidths: active trees but no congested edge");
    }
    const double share = remaining[static_cast<std::size_t>(e_min)] / congestion[static_cast<std::size_t>(e_min)];
    for (int t = 0; t < num_trees; ++t) {
      if (tree_done[static_cast<std::size_t>(t)]) continue;
      const bool contains =
          std::find(tree_edges[static_cast<std::size_t>(t)].begin(), tree_edges[static_cast<std::size_t>(t)].end(), e_min) !=
          tree_edges[static_cast<std::size_t>(t)].end();
      if (!contains) continue;
      out.per_tree[static_cast<std::size_t>(t)] = share;
      for (int e : tree_edges[static_cast<std::size_t>(t)]) {
        remaining[static_cast<std::size_t>(e)] = std::max(0.0, remaining[static_cast<std::size_t>(e)] - share);
        --congestion[static_cast<std::size_t>(e)];
      }
      tree_done[static_cast<std::size_t>(t)] = 1;
      --active;
    }
    edge_removed[static_cast<std::size_t>(e_min)] = 1;
  }

  for (double b : out.per_tree) out.aggregate += b;
  return out;
}

std::vector<trees::SpanningTree> build_low_depth_trees_reference(
    const polarfly::PolarFly& pf, const polarfly::Layout& layout) {
  const graph::Graph& g = pf.graph();
  const int n = g.num_vertices();
  const int q = pf.q();
  const int w = layout.starter_quadric;

  // E_a: availability of each edge for the level-3 center attachments
  // (line 1 of Algorithm 3). Shared across all trees.
  std::vector<char> available(static_cast<std::size_t>(g.num_edges()), 1);

  std::vector<trees::SpanningTree> out;
  out.reserve(static_cast<std::size_t>(q));
  for (int i = 0; i < q; ++i) {
    const int root = layout.centers[static_cast<std::size_t>(i)];
    std::vector<int> parent(static_cast<std::size_t>(n), -1);
    std::vector<char> in_tree(static_cast<std::size_t>(n), 0);
    in_tree[static_cast<std::size_t>(root)] = 1;

    // Level 1: every neighbor of the root (lines 4-5).
    for (int u : g.neighbors(root)) {
      parent[static_cast<std::size_t>(u)] = root;
      in_tree[static_cast<std::size_t>(u)] = 1;
    }
    // Level 2: expand level-1 vertices except the starter quadric
    // (lines 6-8).
    for (int u : g.neighbors(root)) {
      if (u == w) continue;
      for (int z : g.neighbors(u)) {
        if (!in_tree[static_cast<std::size_t>(z)]) {
          parent[static_cast<std::size_t>(z)] = u;
          in_tree[static_cast<std::size_t>(z)] = 1;
        }
      }
    }
    // Level 3: attach every other cluster center via an edge still in E_a
    // (lines 9-12).
    for (int j = 0; j < q; ++j) {
      if (j == i) continue;
      const int center = layout.centers[static_cast<std::size_t>(j)];
      if (in_tree[static_cast<std::size_t>(center)]) {
        throw std::logic_error(
            "build_low_depth_trees: center covered early (layout broken)");
      }
      int chosen = -1;
      for (int u : g.neighbors(center)) {
        const int id = g.edge_id(u, center);
        if (available[static_cast<std::size_t>(id)] && in_tree[static_cast<std::size_t>(u)]) {
          chosen = u;
          break;
        }
      }
      if (chosen < 0) {
        throw std::logic_error(
            "build_low_depth_trees: no available edge for a center "
            "(contradicts Theorem 7.4)");
      }
      parent[static_cast<std::size_t>(center)] = chosen;
      in_tree[static_cast<std::size_t>(center)] = 1;
      available[static_cast<std::size_t>(g.edge_id(chosen, center))] = 0;
    }

    out.emplace_back(root, std::move(parent));
  }
  return out;
}

std::vector<trees::SpanningTree> build_low_depth_trees_even_reference(
    const polarfly::PolarFly& pf, int starter_index) {
  if (pf.q() % 2 != 0) {
    throw std::invalid_argument(
        "build_low_depth_trees_even: even prime power q required");
  }
  const graph::Graph& g = pf.graph();
  const int n = g.num_vertices();
  const auto& quadrics = pf.quadrics();
  if (starter_index < 0 ||
      starter_index >= static_cast<int>(quadrics.size())) {
    throw std::out_of_range("build_low_depth_trees_even: starter_index");
  }
  const int w = quadrics[static_cast<std::size_t>(starter_index)];
  // The nucleus is the unique vertex adjacent to every quadric; in the
  // canonical coordinates it is [1,1,1] (characteristic 2).
  const int nucleus = pf.vertex_of(polarfly::Point{1, 1, 1});

  std::vector<int> centers;
  for (int u : g.neighbors(w)) {
    if (u != nucleus) centers.push_back(u);
  }

  std::vector<char> available(static_cast<std::size_t>(g.num_edges()), 1);
  std::vector<trees::SpanningTree> out;
  out.reserve(centers.size());
  for (int root : centers) {
    std::vector<int> parent(static_cast<std::size_t>(n), -1);
    std::vector<int> level(static_cast<std::size_t>(n), -1);
    level[static_cast<std::size_t>(root)] = 0;
    // Level 1: the whole cluster of `root` plus the starter quadric.
    for (int u : g.neighbors(root)) {
      parent[static_cast<std::size_t>(u)] = root;
      level[static_cast<std::size_t>(u)] = 1;
    }
    // Level 2: expand the non-quadric level-1 vertices (expanding w would
    // concentrate all trees' traffic on w's q links, as in Algorithm 3).
    for (int u : g.neighbors(root)) {
      if (pf.is_quadric(u)) continue;
      for (int z : g.neighbors(u)) {
        if (level[static_cast<std::size_t>(z)] < 0) {
          parent[static_cast<std::size_t>(z)] = u;
          level[static_cast<std::size_t>(z)] = 2;
        }
      }
    }
    // Attach the leftovers (other centers, the nucleus, remaining
    // quadrics) through the shared edge pool, each under its shallowest
    // covered neighbor; repeat while progress is made so chains like
    // quadric -> nucleus resolve.
    int covered = 0;
    for (int v = 0; v < n; ++v) covered += level[static_cast<std::size_t>(v)] >= 0;
    bool progress = true;
    while (covered < n && progress) {
      progress = false;
      for (int v = 0; v < n; ++v) {
        if (level[static_cast<std::size_t>(v)] >= 0) continue;
        int best = -1;
        for (int u : g.neighbors(v)) {
          if (level[static_cast<std::size_t>(u)] < 0 || !available[static_cast<std::size_t>(g.edge_id(u, v))]) continue;
          if (best < 0 || level[static_cast<std::size_t>(u)] < level[static_cast<std::size_t>(best)]) best = u;
        }
        if (best < 0) continue;
        parent[static_cast<std::size_t>(v)] = best;
        level[static_cast<std::size_t>(v)] = level[static_cast<std::size_t>(best)] + 1;
        available[static_cast<std::size_t>(g.edge_id(best, v))] = 0;
        ++covered;
        progress = true;
      }
    }
    if (covered < n) {
      throw std::logic_error(
          "build_low_depth_trees_even: attachment pool exhausted");
    }
    out.emplace_back(root, std::move(parent));
  }
  return out;
}

collectives::LogicalBandwidths logical_tree_bandwidths_reference(
    const collectives::RoutedNetwork& net,
    const std::vector<collectives::LogicalTree>& trees,
    double link_bandwidth) {
  if (link_bandwidth <= 0.0) {
    throw std::invalid_argument("logical_tree_bandwidths: bandwidth <= 0");
  }
  const int n = net.graph().num_vertices();
  const int num_trees = static_cast<int>(trees.size());

  // Directed link key (u -> v) => dense index, built lazily over used links.
  std::vector<int> link_index(static_cast<std::size_t>(n) * static_cast<std::size_t>(n), -1);
  std::vector<double> remaining;     // L(l)
  std::vector<double> congestion;    // C(l) = sum of flow multiplicities
  // flows[t]: (link, multiplicity) pairs for tree t's reduction direction.
  std::vector<std::vector<std::pair<int, double>>> flows(static_cast<std::size_t>(num_trees));

  auto link_id = [&](int u, int v) {
    const std::size_t key = static_cast<std::size_t>(u) * static_cast<std::size_t>(n) + static_cast<std::size_t>(v);
    if (link_index[key] < 0) {
      link_index[key] = static_cast<int>(remaining.size());
      remaining.push_back(link_bandwidth);
      congestion.push_back(0.0);
    }
    return link_index[key];
  };

  for (int t = 0; t < num_trees; ++t) {
    const auto& tree = trees[static_cast<std::size_t>(t)];
    if (static_cast<int>(tree.parent.size()) != n) {
      throw std::invalid_argument("logical_tree_bandwidths: tree size");
    }
    std::vector<double> multiplicity;  // per dense link id, this tree
    auto add_path = [&](int src, int dst) {
      const auto path = net.path(src, dst);
      for (std::size_t i = 1; i < path.size(); ++i) {
        const int l = link_id(path[i - 1], path[i]);
        if (l >= static_cast<int>(multiplicity.size())) {
          multiplicity.resize(static_cast<std::size_t>(l + 1), 0.0);
        }
        multiplicity[static_cast<std::size_t>(l)] += 1.0;
      }
    };
    for (int v = 0; v < n; ++v) {
      if (v == tree.root) continue;
      add_path(v, tree.parent[static_cast<std::size_t>(v)]);  // reduction: child -> parent
      add_path(tree.parent[static_cast<std::size_t>(v)], v);  // broadcast: parent -> child
    }
    for (int l = 0; l < static_cast<int>(multiplicity.size()); ++l) {
      if (multiplicity[static_cast<std::size_t>(l)] > 0.0) {
        flows[static_cast<std::size_t>(t)].emplace_back(l, multiplicity[static_cast<std::size_t>(l)]);
        congestion[static_cast<std::size_t>(l)] += multiplicity[static_cast<std::size_t>(l)];
      }
    }
  }

  collectives::LogicalBandwidths out;
  out.per_tree.assign(static_cast<std::size_t>(num_trees), 0.0);
  for (double c : congestion) {
    out.max_link_flows = std::max(out.max_link_flows,
                                  static_cast<int>(c + 0.5));
  }

  std::vector<char> done(static_cast<std::size_t>(num_trees), 0);
  int active = num_trees;
  while (active > 0) {
    int l_min = -1;
    double best = std::numeric_limits<double>::infinity();
    for (int l = 0; l < static_cast<int>(remaining.size()); ++l) {
      if (congestion[static_cast<std::size_t>(l)] <= 1e-12) continue;
      const double ratio = remaining[static_cast<std::size_t>(l)] / congestion[static_cast<std::size_t>(l)];
      if (ratio < best) {
        best = ratio;
        l_min = l;
      }
    }
    if (l_min < 0) {
      throw std::logic_error("logical_tree_bandwidths: no bottleneck link");
    }
    const double rate = remaining[static_cast<std::size_t>(l_min)] / congestion[static_cast<std::size_t>(l_min)];
    for (int t = 0; t < num_trees; ++t) {
      if (done[static_cast<std::size_t>(t)]) continue;
      const bool uses = std::any_of(
          flows[static_cast<std::size_t>(t)].begin(), flows[static_cast<std::size_t>(t)].end(),
          [&](const auto& f) { return f.first == l_min; });
      if (!uses) continue;
      out.per_tree[static_cast<std::size_t>(t)] = rate;
      for (const auto& [l, mult] : flows[static_cast<std::size_t>(t)]) {
        remaining[static_cast<std::size_t>(l)] = std::max(0.0, remaining[static_cast<std::size_t>(l)] - rate * mult);
        congestion[static_cast<std::size_t>(l)] -= mult;
      }
      done[static_cast<std::size_t>(t)] = 1;
      --active;
    }
    congestion[static_cast<std::size_t>(l_min)] = 0.0;  // remove the bottleneck link
  }

  out.aggregate = std::accumulate(out.per_tree.begin(), out.per_tree.end(),
                                  0.0);
  PFAR_ENSURE(static_cast<int>(out.per_tree.size()) == num_trees, num_trees);
  return out;
}

}  // namespace pfar::oracle
