// Golden/property tests for the CSR + packed-bitset graph layout: a
// finalized Graph must be observably identical to an independently built
// set-based adjacency model on random graphs and on ER_q, with the packed
// bitset resident and with it disabled (budget 0), and edge ids must stay
// the lexicographic rank of the normalized edge (the seed contract the
// congestion model and simulator index by).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "polarfly/erq.hpp"
#include "util/rng.hpp"

namespace pfar::graph {
namespace {

// Restores the process-wide bitset budget on scope exit.
class BitsetBudgetGuard {
 public:
  explicit BitsetBudgetGuard(std::size_t bytes)
      : previous_(Graph::set_max_bitset_bytes(bytes)) {}
  ~BitsetBudgetGuard() { Graph::set_max_bitset_bytes(previous_); }

 private:
  std::size_t previous_;
};

// Independent reference model: ordered edge set + per-vertex sorted
// adjacency, no shared code with Graph's CSR internals.
struct ReferenceGraph {
  int n = 0;
  std::set<std::pair<int, int>> edges;            // normalized u < v
  std::vector<std::set<int>> adj;

  explicit ReferenceGraph(int vertices) : n(vertices), adj(static_cast<std::size_t>(vertices)) {}

  void add(int u, int v) {
    edges.insert({std::min(u, v), std::max(u, v)});
    adj[static_cast<std::size_t>(u)].insert(v);
    adj[static_cast<std::size_t>(v)].insert(u);
  }
};

void expect_identical(const Graph& g, const ReferenceGraph& ref) {
  ASSERT_EQ(g.num_vertices(), ref.n);
  ASSERT_EQ(g.num_edges(), static_cast<int>(ref.edges.size()));

  // Edge ids are the lexicographic rank: std::set iterates in exactly
  // that order, so position == id.
  int id = 0;
  for (const auto& [u, v] : ref.edges) {
    EXPECT_EQ(g.edge_id(u, v), id);
    EXPECT_EQ(g.edge_id(v, u), id);  // symmetric lookup
    EXPECT_EQ(g.edge(id).u, u);
    EXPECT_EQ(g.edge(id).v, v);
    ++id;
  }

  for (int v = 0; v < ref.n; ++v) {
    const auto row = g.neighbors(v);
    const auto eids = g.neighbor_edge_ids(v);
    ASSERT_EQ(row.size(), ref.adj[static_cast<std::size_t>(v)].size())
        << "vertex " << v;
    ASSERT_EQ(eids.size(), row.size());
    EXPECT_EQ(g.degree(v), static_cast<int>(row.size()));
    EXPECT_TRUE(std::is_sorted(row.begin(), row.end()));
    std::size_t i = 0;
    for (int u : ref.adj[static_cast<std::size_t>(v)]) {  // set iterates ascending
      EXPECT_EQ(row[i], u);
      EXPECT_EQ(eids[i], g.edge_id(v, u));
      ++i;
    }
  }

  for (int u = 0; u < ref.n; ++u) {
    for (int v = 0; v < ref.n; ++v) {
      const bool expected = ref.adj[static_cast<std::size_t>(u)].count(v) > 0;
      EXPECT_EQ(g.has_edge(u, v), expected) << u << "-" << v;
      if (!expected && u != v) {
        EXPECT_EQ(g.edge_id(u, v), -1);
      }
      if (u < v) {
        std::vector<int> common;
        std::set_intersection(ref.adj[static_cast<std::size_t>(u)].begin(), ref.adj[static_cast<std::size_t>(u)].end(),
                              ref.adj[static_cast<std::size_t>(v)].begin(), ref.adj[static_cast<std::size_t>(v)].end(),
                              std::back_inserter(common));
        EXPECT_EQ(g.common_neighbor_count(u, v),
                  static_cast<int>(common.size()));
      }
    }
  }
}

Graph build_from(const ReferenceGraph& ref) {
  Graph g(ref.n);
  for (const auto& [u, v] : ref.edges) g.add_edge(u, v);
  g.finalize();
  return g;
}

ReferenceGraph random_reference(int n, double p, std::uint64_t seed) {
  ReferenceGraph ref(n);
  util::Rng rng(seed);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.next_double() < p) ref.add(u, v);
    }
  }
  return ref;
}

TEST(GraphCsrTest, RandomGraphsMatchReferenceWithBitset) {
  for (const auto& [n, p, seed] :
       {std::tuple{8, 0.5, 1ull}, std::tuple{33, 0.2, 2ull},
        std::tuple{64, 0.08, 3ull}, std::tuple{90, 0.5, 4ull}}) {
    const auto ref = random_reference(n, p, seed);
    const Graph g = build_from(ref);
    ASSERT_TRUE(g.has_adjacency_bitset());
    expect_identical(g, ref);
  }
}

TEST(GraphCsrTest, RandomGraphsMatchReferenceWithoutBitset) {
  BitsetBudgetGuard guard(0);  // force the merge-scan / binary-search path
  for (const auto& [n, p, seed] :
       {std::tuple{8, 0.5, 5ull}, std::tuple{33, 0.2, 6ull},
        std::tuple{64, 0.08, 7ull}}) {
    const auto ref = random_reference(n, p, seed);
    const Graph g = build_from(ref);
    ASSERT_FALSE(g.has_adjacency_bitset());
    expect_identical(g, ref);
  }
}

// ER_q golden check: rebuild the adjacency through the reference model
// from PolarFly's own edge list, then compare every observable. Covers
// both parities and prime powers (4, 8, 9 exercise non-prime fields).
class ErqCsrTest : public ::testing::TestWithParam<int> {};

TEST_P(ErqCsrTest, MatchesReferenceModel) {
  const polarfly::PolarFly pf(GetParam());
  const Graph& g = pf.graph();
  ReferenceGraph ref(pf.n());
  for (const auto& e : g.edges()) ref.add(e.u, e.v);
  expect_identical(g, ref);
}

TEST_P(ErqCsrTest, BitsetAndFallbackAgree) {
  const polarfly::PolarFly with_bits(GetParam());
  BitsetBudgetGuard guard(0);
  const polarfly::PolarFly without_bits(GetParam());
  const Graph& a = with_bits.graph();
  const Graph& b = without_bits.graph();
  ASSERT_TRUE(a.has_adjacency_bitset());
  ASSERT_FALSE(b.has_adjacency_bitset());
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (int id = 0; id < a.num_edges(); ++id) {
    EXPECT_EQ(a.edge(id), b.edge(id));
  }
  // The unique-2-path invariant (Theorem 6.1) through both code paths.
  const int n = a.num_vertices();
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const int c = a.common_neighbor_count(u, v);
      EXPECT_EQ(c, b.common_neighbor_count(u, v));
      EXPECT_LE(c, a.has_edge(u, v) ? 2 : 1);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(PrimePowers, ErqCsrTest,
                         ::testing::Values(3, 4, 5, 7, 8, 9, 11));

TEST(GraphCsrTest, GroupedAndShuffledInsertionGiveSameIds) {
  // PolarFly/Singer emit edges grouped by ascending first endpoint (the
  // run-sort fast path); arbitrary insertion order must yield the same
  // lexicographic ids.
  const auto ref = random_reference(40, 0.3, 8ull);
  const Graph grouped = build_from(ref);

  std::vector<std::pair<int, int>> shuffled(ref.edges.begin(),
                                            ref.edges.end());
  util::Rng rng(9);
  for (std::size_t i = shuffled.size(); i > 1; --i) {
    std::swap(shuffled[i - 1], shuffled[rng.next_below(i)]);
  }
  Graph g(ref.n);
  for (const auto& [u, v] : shuffled) g.add_edge(u, v);
  g.finalize();

  ASSERT_EQ(g.num_edges(), grouped.num_edges());
  for (int id = 0; id < g.num_edges(); ++id) {
    EXPECT_EQ(g.edge(id), grouped.edge(id));
  }
  expect_identical(g, ref);
}

TEST(GraphCsrTest, DuplicateEdgeThrowsAtFinalize) {
  Graph g(4);
  g.add_edge(0, 1);
  g.add_edge(1, 0);  // same normalized edge
  EXPECT_THROW(g.finalize(), std::logic_error);
}

TEST(GraphCsrTest, ReserveIsObservablyInert) {
  const auto ref = random_reference(25, 0.3, 10ull);
  Graph g(ref.n);
  g.reserve(static_cast<int>(ref.edges.size()), 12);
  for (const auto& [u, v] : ref.edges) g.add_edge(u, v);
  g.finalize();
  expect_identical(g, ref);
}

// RowSlots answers has_edge(v, p) with the slot edge_id's row search would
// find, for every loaded row and every p, out-of-range ones included, even
// though entries from earlier rows stay behind in its map.
TEST(GraphCsrTest, RowSlotsMatchEdgeLookups) {
  const auto ref = random_reference(30, 0.25, 11ull);
  Graph g(ref.n);
  for (const auto& [u, v] : ref.edges) g.add_edge(u, v);
  g.finalize();
  RowSlots slots(g);
  for (int v = 0; v < g.num_vertices(); ++v) {
    const IntSpan row = slots.load(v);
    ASSERT_EQ(row.size(), g.neighbors(v).size());
    for (int p = -2; p < g.num_vertices() + 2; ++p) {
      const int s = slots.slot(p);
      if (p < 0 || p >= g.num_vertices() || !g.has_edge(v, p)) {
        EXPECT_EQ(s, -1) << v << " " << p;
        continue;
      }
      ASSERT_GE(s, 0) << v << " " << p;
      EXPECT_EQ(row[static_cast<std::size_t>(s)], p);
      EXPECT_EQ(g.neighbor_edge_ids(v)[static_cast<std::size_t>(s)],
                g.edge_id(v, p));
    }
  }
}

}  // namespace
}  // namespace pfar::graph
