// Test-only oracle (library pfar_oracle): the projective plane PG(2, q)
// and its polarity graph, an independent construction of ER_q that
// polarfly::PolarFly must match (Section 6.1). Never linked into the
// product libraries.
#pragma once

#include <vector>

#include "gf/field.hpp"
#include "graph/graph.hpp"
#include "polarfly/erq.hpp"

namespace pfar::oracle {

/// The projective plane PG(2, q) underlying the ER_q construction
/// (Section 6.1): q^2+q+1 points and q^2+q+1 lines with the classical
/// incidence structure, plus the orthogonal polarity (point [a,b,c] <->
/// line {x : ax+by+cz = 0}) whose polarity graph *is* ER_q.
///
/// This class makes the paper's geometric background executable: the
/// incidence axioms (two points span one line, two lines meet in one
/// point, every line has q+1 points, ...) are tested directly, and the
/// polarity-graph derivation cross-checks the PolarFly adjacency.
class ProjectivePlane {
 public:
  explicit ProjectivePlane(int q);

  int q() const { return q_; }
  /// Number of points (= number of lines) = q^2 + q + 1.
  int size() const { return n_; }

  const gf::Field& field() const { return field_; }

  /// Point i as a left-normalized homogeneous coordinate triple.
  const polarfly::Point& point(int i) const { return points_[static_cast<std::size_t>(i)]; }
  /// Line j's coefficient triple [a,b,c]: the line {x : a x0 + b x1 +
  /// c x2 = 0}. Lines are indexed by the normalized coefficient triple,
  /// so line j has the same coordinates as point j (self-duality).
  const polarfly::Point& line(int j) const { return points_[static_cast<std::size_t>(j)]; }

  /// True iff point i lies on line j.
  bool incident(int point_id, int line_id) const;

  /// The q+1 points on line j, ascending.
  const std::vector<int>& points_on_line(int line_id) const {
    return line_points_[static_cast<std::size_t>(line_id)];
  }
  /// The q+1 lines through point i, ascending.
  const std::vector<int>& lines_through_point(int point_id) const {
    return point_lines_[static_cast<std::size_t>(point_id)];
  }

  /// The unique line through two distinct points.
  int line_through(int p1, int p2) const;
  /// The unique intersection point of two distinct lines.
  int meet(int l1, int l2) const;

  /// The orthogonal polarity: maps point i to the line with the same
  /// coordinates (and vice versa). An absolute point of the polarity
  /// (incident with its polar line) is exactly a quadric of ER_q.
  int polar(int id) const { return id; }
  bool is_absolute(int point_id) const {
    return incident(point_id, polar(point_id));
  }

 private:
  int q_;
  int n_;
  gf::Field field_;
  std::vector<polarfly::Point> points_;
  std::vector<std::vector<int>> line_points_;
  std::vector<std::vector<int>> point_lines_;
};

/// Builds the polarity graph of the plane: vertices are points, u ~ v iff
/// u lies on v's polar line (u != v). By Section 6.1 this equals ER_q;
/// `polarfly_matches_polarity_graph` asserts it.
graph::Graph polarity_graph(const ProjectivePlane& plane);

/// True iff the polarity graph of PG(2, q) has exactly the PolarFly
/// adjacency (vertex ids coincide by construction).
bool polarfly_matches_polarity_graph(const polarfly::PolarFly& pf);

}  // namespace pfar::oracle
