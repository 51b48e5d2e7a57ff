#include <gtest/gtest.h>

#include <set>

#include "oracle/projective_plane.hpp"

namespace pfar::oracle {
namespace {

using polarfly::PolarFly;
using polarfly::Point;

class PlaneAxioms : public ::testing::TestWithParam<int> {};

TEST_P(PlaneAxioms, Cardinalities) {
  const ProjectivePlane plane(GetParam());
  const int q = plane.q();
  EXPECT_EQ(plane.size(), q * q + q + 1);
  for (int j = 0; j < plane.size(); ++j) {
    EXPECT_EQ(static_cast<int>(plane.points_on_line(j).size()), q + 1);
    EXPECT_EQ(static_cast<int>(plane.lines_through_point(j).size()), q + 1);
  }
}

TEST_P(PlaneAxioms, TwoPointsSpanExactlyOneLine) {
  const ProjectivePlane plane(GetParam());
  for (int p1 = 0; p1 < plane.size(); ++p1) {
    for (int p2 = p1 + 1; p2 < plane.size(); ++p2) {
      const int line = plane.line_through(p1, p2);
      EXPECT_TRUE(plane.incident(p1, line));
      EXPECT_TRUE(plane.incident(p2, line));
      // Uniqueness: no second common line.
      int common = 0;
      for (int l : plane.lines_through_point(p1)) {
        if (plane.incident(p2, l)) ++common;
      }
      EXPECT_EQ(common, 1);
    }
  }
}

TEST_P(PlaneAxioms, TwoLinesMeetInExactlyOnePoint) {
  const ProjectivePlane plane(GetParam());
  for (int l1 = 0; l1 < plane.size(); ++l1) {
    for (int l2 = l1 + 1; l2 < plane.size(); ++l2) {
      const int p = plane.meet(l1, l2);
      EXPECT_TRUE(plane.incident(p, l1));
      EXPECT_TRUE(plane.incident(p, l2));
    }
  }
}

TEST_P(PlaneAxioms, IncidenceIsOrthogonality) {
  const ProjectivePlane plane(GetParam());
  const auto& f = plane.field();
  for (int p = 0; p < plane.size(); ++p) {
    for (int l = 0; l < plane.size(); ++l) {
      const Point& pt = plane.point(p);
      const Point& ln = plane.line(l);
      gf::Elem dot = f.mul(pt.x, ln.x);
      dot = f.add(dot, f.mul(pt.y, ln.y));
      dot = f.add(dot, f.mul(pt.z, ln.z));
      EXPECT_EQ(plane.incident(p, l), dot == 0);
    }
  }
}

TEST_P(PlaneAxioms, AbsolutePointsAreQuadrics) {
  const int q = GetParam();
  const ProjectivePlane plane(q);
  const PolarFly pf(q);
  int absolute = 0;
  for (int p = 0; p < plane.size(); ++p) {
    EXPECT_EQ(plane.is_absolute(p), pf.is_quadric(p)) << "point " << p;
    if (plane.is_absolute(p)) ++absolute;
  }
  EXPECT_EQ(absolute, q + 1);
}

TEST_P(PlaneAxioms, PolarityGraphIsPolarFly) {
  const PolarFly pf(GetParam());
  EXPECT_TRUE(polarfly_matches_polarity_graph(pf));
}

INSTANTIATE_TEST_SUITE_P(PrimePowers, PlaneAxioms,
                         ::testing::Values(2, 3, 4, 5, 7, 8, 9, 11));

TEST(PlaneTest, DualityErrorsOnDegenerateArgs) {
  const ProjectivePlane plane(3);
  EXPECT_THROW(plane.line_through(2, 2), std::invalid_argument);
  EXPECT_THROW(plane.meet(5, 5), std::invalid_argument);
}

}  // namespace
}  // namespace pfar::oracle
