#include <gtest/gtest.h>

#include "oracle/reference_math.hpp"
#include "polarfly/erq.hpp"

namespace pfar::polarfly {
namespace {

// Structural invariants of ER_q (Section 6.1, Table 1), parameterized over
// prime powers including even characteristic.
class ErqInvariants : public ::testing::TestWithParam<int> {};

TEST_P(ErqInvariants, VertexAndEdgeCounts) {
  const int q = GetParam();
  const PolarFly pf(q);
  EXPECT_EQ(pf.n(), q * q + q + 1);
  EXPECT_EQ(pf.graph().num_vertices(), pf.n());
  // q+1 quadrics of degree q, q^2 non-quadrics of degree q+1
  // => |E| = q (q+1)^2 / 2 (proof of Corollary 7.1).
  EXPECT_EQ(pf.graph().num_edges(), q * (q + 1) * (q + 1) / 2);
}

TEST_P(ErqInvariants, Degrees) {
  const int q = GetParam();
  const PolarFly pf(q);
  for (int v = 0; v < pf.n(); ++v) {
    if (pf.is_quadric(v)) {
      EXPECT_EQ(pf.graph().degree(v), q) << "quadric " << v;
    } else {
      EXPECT_EQ(pf.graph().degree(v), q + 1) << "non-quadric " << v;
    }
  }
  EXPECT_EQ(pf.radix(), q + 1);
}

TEST_P(ErqInvariants, QuadricCount) {
  const int q = GetParam();
  const PolarFly pf(q);
  EXPECT_EQ(static_cast<int>(pf.quadrics().size()), q + 1);
  EXPECT_EQ(pf.count(VertexType::kQuadric), q + 1);
}

TEST_P(ErqInvariants, TableOneCountsOddQ) {
  const int q = GetParam();
  if (q % 2 == 0) GTEST_SKIP() << "Table 1 covers odd q";
  const PolarFly pf(q);
  EXPECT_EQ(pf.count(VertexType::kV1), q * (q + 1) / 2);
  EXPECT_EQ(pf.count(VertexType::kV2), q * (q - 1) / 2);
}

TEST_P(ErqInvariants, TableOneNeighborhoodsOddQ) {
  const int q = GetParam();
  if (q % 2 == 0) GTEST_SKIP() << "Table 1 covers odd q";
  const PolarFly pf(q);
  const auto& g = pf.graph();
  for (int v = 0; v < pf.n(); ++v) {
    int nw = 0, nv1 = 0, nv2 = 0;
    for (int u : g.neighbors(v)) {
      switch (pf.type(u)) {
        case VertexType::kQuadric: ++nw; break;
        case VertexType::kV1: ++nv1; break;
        case VertexType::kV2: ++nv2; break;
      }
    }
    switch (pf.type(v)) {
      case VertexType::kQuadric:
        EXPECT_EQ(nw, 0);
        EXPECT_EQ(nv1, q);
        EXPECT_EQ(nv2, 0);
        break;
      case VertexType::kV1:
        EXPECT_EQ(nw, 2);
        EXPECT_EQ(nv1, (q - 1) / 2);
        EXPECT_EQ(nv2, (q - 1) / 2);
        break;
      case VertexType::kV2:
        EXPECT_EQ(nw, 0);
        EXPECT_EQ(nv1, (q + 1) / 2);
        EXPECT_EQ(nv2, (q + 1) / 2);
        break;
    }
  }
}

TEST_P(ErqInvariants, DiameterTwo) {
  const int q = GetParam();
  const PolarFly pf(q);
  if (pf.n() <= 1500) {
    EXPECT_EQ(pf.graph().diameter(), 2);
  }
}

TEST_P(ErqInvariants, AtMostOneTwoPath) {
  // Theorem 6.1: at most one length-2 path between distinct vertices.
  const int q = GetParam();
  if (q > 13) GTEST_SKIP() << "O(N^2 d) check kept to moderate q";
  const PolarFly pf(q);
  const auto& g = pf.graph();
  for (int u = 0; u < pf.n(); ++u) {
    for (int v = u + 1; v < pf.n(); ++v) {
      const int paths = oracle::common_neighbor_count(g, u, v);
      if (g.has_edge(u, v)) {
        EXPECT_LE(paths, 1);
      } else {
        // Diameter 2 and unique paths: exactly one 2-path.
        EXPECT_EQ(paths, 1) << "u=" << u << " v=" << v;
      }
    }
  }
}

TEST_P(ErqInvariants, AdjacencyIsOrthogonality) {
  // Cross-check the analytic neighbor enumeration against the definition.
  const int q = GetParam();
  if (q > 9) GTEST_SKIP() << "brute-force cross-check kept small";
  const PolarFly pf(q);
  const auto& g = pf.graph();
  for (int u = 0; u < pf.n(); ++u) {
    for (int v = u + 1; v < pf.n(); ++v) {
      const bool orthogonal = pf.dot(pf.point(u), pf.point(v)) == 0;
      EXPECT_EQ(g.has_edge(u, v), orthogonal) << "u=" << u << " v=" << v;
    }
  }
}

TEST_P(ErqInvariants, QuadricsAreSelfOrthogonal) {
  const int q = GetParam();
  const PolarFly pf(q);
  for (int v = 0; v < pf.n(); ++v) {
    const bool selforth = pf.dot(pf.point(v), pf.point(v)) == 0;
    EXPECT_EQ(pf.is_quadric(v), selforth);
  }
}

INSTANTIATE_TEST_SUITE_P(PrimePowers, ErqInvariants,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 9, 11, 13, 16,
                                           17, 19, 25, 27, 32));

TEST(PolarFlyTest, NormalizeRoundTrips) {
  // Every vertex's left-normalized point maps back to the vertex; a copy
  // scaled by s != 1 is not left-normalized and is rejected.
  const PolarFly pf(5);
  const auto& f = pf.field();
  for (int v = 0; v < pf.n(); ++v) {
    const Point& pt = pf.point(v);
    EXPECT_EQ(pf.vertex_of(pt), v);
    for (gf::Elem s = 2; s < 5; ++s) {
      const Point scaled{f.mul(s, pt.x), f.mul(s, pt.y), f.mul(s, pt.z)};
      EXPECT_THROW(pf.vertex_of(scaled), std::invalid_argument);
    }
  }
}

TEST(PolarFlyTest, ConnectedForAllSmallQ) {
  for (int q : {2, 3, 4, 5, 7, 8, 9, 11, 13}) {
    EXPECT_TRUE(PolarFly(q).graph().is_connected()) << q;
  }
}

}  // namespace
}  // namespace pfar::polarfly
