#include "trees/low_depth.hpp"

#include <optional>
#include <stdexcept>
#include <utility>

#include "util/contracts.hpp"
#include "util/thread_pool.hpp"

namespace pfar::trees {
namespace {

// Moves a slot-per-tree optional buffer into the dense result vector.
std::vector<SpanningTree> collect(std::vector<std::optional<SpanningTree>> slots) {
  std::vector<SpanningTree> out;
  out.reserve(slots.size());
  for (auto& slot : slots) out.push_back(std::move(*slot));
  return out;
}

}  // namespace

std::vector<SpanningTree> build_low_depth_trees(
    const polarfly::PolarFly& pf, const polarfly::Layout& layout,
    int threads) {
  const graph::Graph& g = pf.graph();
  const int n = g.num_vertices();
  const int q = pf.q();
  const int w = layout.starter_quadric;

  // Phase 1 (parallel, independent per tree): levels 0-2 of Algorithm 3
  // (lines 4-8). Only the graph is read; each task writes its own slots.
  std::vector<std::vector<int>> parents(static_cast<std::size_t>(q));
  std::vector<std::vector<char>> in_tree(static_cast<std::size_t>(q));
  util::parallel_for(threads, q, [&](int i) {
    const int root = layout.centers[static_cast<std::size_t>(i)];
    std::vector<int>& parent = parents[static_cast<std::size_t>(i)];
    std::vector<char>& covered = in_tree[static_cast<std::size_t>(i)];
    parent.assign(static_cast<std::size_t>(n), -1);
    covered.assign(static_cast<std::size_t>(n), 0);
    covered[static_cast<std::size_t>(root)] = 1;

    // Level 1: every neighbor of the root (lines 4-5).
    for (int u : g.neighbors(root)) {
      parent[static_cast<std::size_t>(u)] = root;
      covered[static_cast<std::size_t>(u)] = 1;
    }
    // Level 2: expand level-1 vertices except the starter quadric
    // (lines 6-8). Expanding w would pull in the other centers at depth 2
    // but would put q-1 trees' traffic on w's q links; the proof of
    // Theorem 7.6 depends on skipping it.
    for (int u : g.neighbors(root)) {
      if (u == w) continue;
      for (int z : g.neighbors(u)) {
        if (!covered[static_cast<std::size_t>(z)]) {
          parent[static_cast<std::size_t>(z)] = u;
          covered[static_cast<std::size_t>(z)] = 1;
        }
      }
    }
  });

  // Phase 2 (sequential, in tree order): level-3 center attachments
  // (lines 9-12) consume the shared available-edge pool E_a (line 1), so
  // they run in the exact order of the reference implementation.
  std::vector<char> available(static_cast<std::size_t>(g.num_edges()), 1);
  for (int i = 0; i < q; ++i) {
    std::vector<int>& parent = parents[static_cast<std::size_t>(i)];
    std::vector<char>& covered = in_tree[static_cast<std::size_t>(i)];
    for (int j = 0; j < q; ++j) {
      if (j == i) continue;
      const int center = layout.centers[static_cast<std::size_t>(j)];
      if (covered[static_cast<std::size_t>(center)]) {
        throw std::logic_error(
            "build_low_depth_trees: center covered early (layout broken)");
      }
      int chosen = -1;
      const auto nbrs = g.neighbors(center);
      const auto eids = g.neighbor_edge_ids(center);
      for (std::size_t k = 0; k < nbrs.size(); ++k) {
        if (available[static_cast<std::size_t>(eids[k])] && covered[static_cast<std::size_t>(nbrs[k])]) {
          chosen = nbrs[k];
          available[static_cast<std::size_t>(eids[k])] = 0;
          break;
        }
      }
      if (chosen < 0) {
        throw std::logic_error(
            "build_low_depth_trees: no available edge for a center "
            "(contradicts Theorem 7.4)");
      }
      parent[static_cast<std::size_t>(center)] = chosen;
      covered[static_cast<std::size_t>(center)] = 1;
    }
  }

  // Phase 3 (parallel): SpanningTree construction (child CSR + level BFS)
  // is independent per tree.
  std::vector<std::optional<SpanningTree>> slots(static_cast<std::size_t>(q));
  util::parallel_for(threads, q, [&](int i) {
    slots[static_cast<std::size_t>(i)].emplace(layout.centers[static_cast<std::size_t>(i)], std::move(parents[static_cast<std::size_t>(i)]));
  });
  auto out = collect(std::move(slots));

  // Theorem 7.6 bounds: q trees, each spanning at depth <= 3.
  PFAR_ENSURE(static_cast<int>(out.size()) == q, q, out.size());
  for (const auto& tree : out) {
    PFAR_ENSURE(tree.depth() <= 3, q, tree.root(), tree.depth());
  }
#if PFAR_AUDIT_ENABLED
  for (const auto& tree : out) {
    PFAR_INVARIANT(tree.is_spanning_tree_of(g), q, tree.root());
  }
  // Lemma 7.8: congestion <= 2 with opposite reduction flows on every
  // doubly-used link.
  PFAR_INVARIANT(max_congestion(g, out) <= 2, q, max_congestion(g, out));
  PFAR_INVARIANT(opposite_reduction_flows(g, out), q);
#endif
  return out;
}

std::vector<SpanningTree> build_low_depth_trees_even(
    const polarfly::PolarFly& pf, int starter_index, int threads) {
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
  const int num_trees = static_cast<int>(centers.size());

  // Phase 1 (parallel, independent per tree): levels 0-2.
  std::vector<std::vector<int>> parents(static_cast<std::size_t>(num_trees));
  std::vector<std::vector<int>> levels(static_cast<std::size_t>(num_trees));
  util::parallel_for(threads, num_trees, [&](int i) {
    const int root = centers[static_cast<std::size_t>(i)];
    std::vector<int>& parent = parents[static_cast<std::size_t>(i)];
    std::vector<int>& level = levels[static_cast<std::size_t>(i)];
    parent.assign(static_cast<std::size_t>(n), -1);
    level.assign(static_cast<std::size_t>(n), -1);
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
  });

  // Phase 2 (sequential, in tree order): leftover attachments through the
  // shared edge pool, exactly as the reference.
  std::vector<char> available(static_cast<std::size_t>(g.num_edges()), 1);
  for (int i = 0; i < num_trees; ++i) {
    std::vector<int>& parent = parents[static_cast<std::size_t>(i)];
    std::vector<int>& level = levels[static_cast<std::size_t>(i)];
    int covered = 0;
    for (int v = 0; v < n; ++v) covered += level[static_cast<std::size_t>(v)] >= 0;
    bool progress = true;
    while (covered < n && progress) {
      progress = false;
      for (int v = 0; v < n; ++v) {
        if (level[static_cast<std::size_t>(v)] >= 0) continue;
        int best = -1;
        int best_eid = -1;
        const auto nbrs = g.neighbors(v);
        const auto eids = g.neighbor_edge_ids(v);
        for (std::size_t k = 0; k < nbrs.size(); ++k) {
          if (level[static_cast<std::size_t>(nbrs[k])] < 0 || !available[static_cast<std::size_t>(eids[k])]) continue;
          if (best < 0 || level[static_cast<std::size_t>(nbrs[k])] < level[static_cast<std::size_t>(best)]) {
            best = nbrs[k];
            best_eid = eids[k];
          }
        }
        if (best < 0) continue;
        parent[static_cast<std::size_t>(v)] = best;
        level[static_cast<std::size_t>(v)] = level[static_cast<std::size_t>(best)] + 1;
        available[static_cast<std::size_t>(best_eid)] = 0;
        ++covered;
        progress = true;
      }
    }
    if (covered < n) {
      throw std::logic_error(
          "build_low_depth_trees_even: attachment pool exhausted");
    }
  }

  // Phase 3 (parallel): SpanningTree construction.
  std::vector<std::optional<SpanningTree>> slots(static_cast<std::size_t>(num_trees));
  util::parallel_for(threads, num_trees, [&](int i) {
    slots[static_cast<std::size_t>(i)].emplace(centers[static_cast<std::size_t>(i)], std::move(parents[static_cast<std::size_t>(i)]));
  });
  auto out = collect(std::move(slots));

  // Even q: q-1 trees (the starter's neighbors minus the nucleus).
  PFAR_ENSURE(static_cast<int>(out.size()) == num_trees, num_trees,
              out.size());
#if PFAR_AUDIT_ENABLED
  for (const auto& tree : out) {
    PFAR_INVARIANT(tree.is_spanning_tree_of(g), tree.root());
  }
#endif
  return out;
}

}  // namespace pfar::trees
