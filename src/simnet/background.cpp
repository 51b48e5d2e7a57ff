#include "simnet/background.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <utility>

#include "util/contracts.hpp"

namespace pfar::simnet {
namespace {

constexpr long long kPpm = 1'000'000;

/// Directed link id of hop u -> v, matching the allreduce engines.
std::size_t dlink(const graph::Graph& g, int u, int v) {
  const int e = g.edge_id(u, v);
  return static_cast<std::size_t>(2 * e + (u > v ? 1 : 0));
}

}  // namespace

std::vector<int> pattern_permutation(int n, util::Rng& rng) {
  PFAR_REQUIRE(n >= 2, n);
  std::vector<int> perm(static_cast<std::size_t>(n));
  std::iota(perm.begin(), perm.end(), 0);
  for (int i = n - 1; i > 0; --i) {
    std::swap(perm[static_cast<std::size_t>(i)],
              perm[static_cast<std::size_t>(
                  rng.next_below(static_cast<std::uint64_t>(i + 1)))]);
  }
  for (int i = 0; i < n; ++i) {
    if (perm[static_cast<std::size_t>(i)] == i) {
      perm[static_cast<std::size_t>(i)] = (i + 1) % n;
    }
  }
  return perm;
}

std::vector<long long> background_link_rates_ppm(const graph::Graph& topology,
                                                 const BackgroundTraffic& bg) {
  const int n = topology.num_vertices();
  PFAR_REQUIRE(n >= 2, n);
  PFAR_REQUIRE(bg.load >= 0.0 && bg.load < 1.0, bg.load);

  std::vector<long long> rates(
      static_cast<std::size_t>(2 * topology.num_edges()), 0);
  if (!bg.active()) return rates;

  // Offered load per source in ppm-flits/cycle: load = 0.5 means half of
  // one link's capacity.
  const long long load_ppm = std::llround(bg.load * static_cast<double>(kPpm));
  const long long hf_ppm =
      std::llround(bg.hotspot_fraction * static_cast<double>(kPpm));

  std::vector<int> perm;
  if (bg.pattern == TrafficPattern::kPermutation) {
    util::Rng rng(bg.seed);
    perm = pattern_permutation(n, rng);
  }

  // Rate src sends toward dst, in ppm-flits/cycle. Integer division of the
  // uniform share drops a sub-ppm remainder per destination — a bounded,
  // deterministic underestimate.
  const auto flow_ppm = [&](int src, int dst) -> long long {
    switch (bg.pattern) {
      case TrafficPattern::kPermutation:
        return perm[static_cast<std::size_t>(src)] == dst ? load_ppm : 0;
      case TrafficPattern::kHotspot: {
        if (src == bg.hotspot_node) return load_ppm / (n - 1);
        const long long hs = load_ppm * hf_ppm / kPpm;
        const long long rest = (load_ppm - hs) / (n - 1);
        return dst == bg.hotspot_node ? hs + rest : rest;
      }
      case TrafficPattern::kUniform:
        return load_ppm / (n - 1);
    }
    return 0;
  };

  // Route every flow over the deterministic minimal next-hop forest toward
  // each destination, accumulating whole subtrees in one pass: after the
  // BFS from dst, process vertices farthest-first and push each vertex's
  // accumulated rate one hop closer to dst.
  graph::BfsTree tree;
  std::vector<long long> acc(static_cast<std::size_t>(n));
  for (int dst = 0; dst < n; ++dst) {
    topology.bfs_tree(dst, tree);
    const auto& order = tree.order;
    const auto& hop = tree.parent;
    PFAR_REQUIRE(order.size() == static_cast<std::size_t>(n), order.size(),
                 n);  // connected fabric
    for (int v = 0; v < n; ++v) {
      acc[static_cast<std::size_t>(v)] = v == dst ? 0 : flow_ppm(v, dst);
    }
    // BFS order is nondecreasing in distance, so the reverse is a valid
    // farthest-first schedule: every vertex is finalized before its next
    // hop is read.
    for (int i = n - 1; i >= 1; --i) {
      const int u = order[static_cast<std::size_t>(i)];
      const long long a = acc[static_cast<std::size_t>(u)];
      if (a == 0) continue;
      const int h = hop[static_cast<std::size_t>(u)];
      rates[dlink(topology, u, h)] += a;
      acc[static_cast<std::size_t>(h)] += a;
    }
  }

  // Leave headroom for the collective on every link.
  const long long cap = 900'000;
  for (auto& r : rates) r = std::min(r, cap);
  return rates;
}

}  // namespace pfar::simnet
