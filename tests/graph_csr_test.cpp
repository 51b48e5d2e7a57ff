// Golden/property tests for the CSR graph layout: a finalized Graph must
// be observably identical to an independently built set-based adjacency
// model on random graphs and on ER_q, edge ids must stay the
// lexicographic rank of the normalized edge (the seed contract the
// congestion model and simulator index by), and parent_links must map
// every tree edge to exactly that id.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "oracle/reference_math.hpp"
#include "polarfly/erq.hpp"
#include "util/rng.hpp"

namespace pfar::graph {
namespace {

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
        EXPECT_EQ(oracle::common_neighbor_count(g, u, v),
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

// The two random-graph sets were first written for a resident packed
// adjacency bitset and for the merge-scan / binary-search rows without
// it. The bitset is gone and both sets now run through the one CSR path;
// each keeps its name and its cases.
TEST(GraphCsrTest, RandomGraphsMatchReferenceWithBitset) {
  for (const auto& [n, p, seed] :
       {std::tuple{8, 0.5, 1ull}, std::tuple{33, 0.2, 2ull},
        std::tuple{64, 0.08, 3ull}, std::tuple{90, 0.5, 4ull}}) {
    const auto ref = random_reference(n, p, seed);
    const Graph g = build_from(ref);
    expect_identical(g, ref);
  }
}

TEST(GraphCsrTest, RandomGraphsMatchReferenceWithoutBitset) {
  for (const auto& [n, p, seed] :
       {std::tuple{8, 0.5, 5ull}, std::tuple{33, 0.2, 6ull},
        std::tuple{64, 0.08, 7ull}}) {
    const auto ref = random_reference(n, p, seed);
    const Graph g = build_from(ref);
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

// Two independent constructions of ER_q give the same edge ids, and the
// merge-scan common_neighbor_count agrees with the fallback that probes
// has_edge(w, v) for every neighbor w of u. The unique-2-path invariant
// (Theorem 6.1) holds through both: at most one common neighbor, at most
// two across an edge.
TEST_P(ErqCsrTest, BitsetAndFallbackAgree) {
  const polarfly::PolarFly first(GetParam());
  const polarfly::PolarFly second(GetParam());
  const Graph& a = first.graph();
  const Graph& b = second.graph();
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (int id = 0; id < a.num_edges(); ++id) {
    EXPECT_EQ(a.edge(id), b.edge(id));
  }
  const int n = a.num_vertices();
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      const int c = oracle::common_neighbor_count(a, u, v);
      int probed = 0;
      for (const int w : b.neighbors(u)) probed += b.has_edge(w, v) ? 1 : 0;
      EXPECT_EQ(c, probed) << u << "-" << v;
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

// parent_links against per-edge edge_id lookups on random parent arrays:
// roots, neighbors, non-neighbors and out-of-range parents, over random
// graphs and ER_q. The table must hold edge_id(v, p) for every parent
// (-1 for a root), and the resolver must throw exactly when some parent
// is neither -1 nor a neighbor of its vertex.
TEST(GraphCsrTest, ParentLinksMatchEdgeIds) {
  std::vector<Graph> graphs;
  for (const auto& [n, p, seed] :
       {std::tuple{1, 0.0, 12ull}, std::tuple{12, 0.3, 13ull},
        std::tuple{30, 0.25, 11ull}, std::tuple{45, 0.1, 14ull}}) {
    graphs.push_back(build_from(random_reference(n, p, seed)));
  }
  for (const int q : {3, 4, 7}) graphs.push_back(polarfly::PolarFly(q).graph());

  util::Rng rng(15);
  int accepted = 0;
  int rejected = 0;
  for (const Graph& g : graphs) {
    const int n = g.num_vertices();
    for (int trial = 0; trial < 40; ++trial) {
      const int num_trees = 1 + static_cast<int>(rng.next_below(4));
      // Half the trials draw parents only from roots and neighbors, so
      // both the accepting and the throwing path get exercised.
      const bool may_be_bad = trial % 2 == 1;
      std::vector<std::vector<int>> arrays(static_cast<std::size_t>(num_trees));
      for (auto& parent : arrays) {
        for (int v = 0; v < n; ++v) {
          const IntSpan row = g.neighbors(v);
          const auto pick = rng.next_below(10);
          if (pick == 0 || row.empty()) {
            parent.push_back(-1);
          } else if (may_be_bad && pick == 1) {
            parent.push_back(static_cast<int>(rng.next_below(
                                 static_cast<std::uint64_t>(n) + 4)) -
                             2);  // [-2, n + 2): any vertex, or out of range
          } else if (may_be_bad && pick == 2 && trial % 4 == 1) {
            parent.push_back(1 << 20);
          } else {
            parent.push_back(row[rng.next_below(row.size())]);
          }
        }
      }
      bool valid = true;
      for (const auto& parent : arrays) {
        for (int v = 0; v < n; ++v) {
          const int p = parent[static_cast<std::size_t>(v)];
          valid = valid && (p == -1 || g.edge_id(v, p) >= 0);
        }
      }
      std::vector<IntSpan> spans;
      for (const auto& parent : arrays) spans.emplace_back(parent);
      if (!valid) {
        ++rejected;
        EXPECT_THROW(parent_links(g, spans), std::invalid_argument);
        continue;
      }
      ++accepted;
      const std::vector<int> links = parent_links(g, spans);
      ASSERT_EQ(links.size(), arrays.size() * static_cast<std::size_t>(n));
      for (std::size_t t = 0; t < arrays.size(); ++t) {
        for (int v = 0; v < n; ++v) {
          const int p = arrays[t][static_cast<std::size_t>(v)];
          EXPECT_EQ(links[t * static_cast<std::size_t>(n) +
                          static_cast<std::size_t>(v)],
                    p == -1 ? -1 : g.edge_id(v, p))
              << "tree " << t << " vertex " << v;
        }
      }
      // A parent array of the wrong length is rejected too.
      arrays.back().push_back(-1);
      spans.back() = IntSpan(arrays.back());
      EXPECT_THROW(parent_links(g, spans), std::invalid_argument);
    }
  }
  EXPECT_GT(accepted, 100);
  EXPECT_GT(rejected, 50);
}

}  // namespace
}  // namespace pfar::graph
