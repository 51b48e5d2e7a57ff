#pragma once

#include <memory>
#include <vector>

#include "gf/field.hpp"
#include "graph/graph.hpp"

namespace pfar::polarfly {

/// A projective point of PG(2, q) in left-normalized form: the leftmost
/// non-zero coordinate is 1 (Section 6.1 of the paper).
struct Point {
  gf::Elem x = 0;
  gf::Elem y = 0;
  gf::Elem z = 0;

  friend bool operator==(const Point&, const Point&) = default;
};

/// Vertex classification of ER_q (Section 6.1, Table 1).
enum class VertexType {
  kQuadric,  // self-orthogonal (W(q))
  kV1,       // adjacent to a quadric
  kV2,       // not adjacent to any quadric
};

/// The Erdős–Rényi polarity graph ER_q — the PolarFly topology — built via
/// the projective-geometry construction: vertices are left-normalized
/// vectors in F_q^3 and edges join orthogonal vectors (dot product 0 in
/// F_q). Self-loops on quadrics are dropped, as PolarFly does.
///
/// N = q^2 + q + 1 vertices; quadrics have degree q, all other vertices
/// degree q + 1; diameter 2 with at most one 2-path between any pair
/// (Theorem 6.1).
class PolarFly {
 public:
  /// Builds ER_q for prime power q. Adjacency is enumerated analytically
  /// (each vertex's orthogonal complement is a projective line with q+1
  /// points), so construction is O(N * q).
  explicit PolarFly(int q);

  int q() const { return q_; }
  /// Number of vertices N = q^2 + q + 1.
  int n() const { return n_; }
  /// Network radix (max degree) = q + 1.
  int radix() const { return q_ + 1; }

  const gf::Field& field() const { return *field_; }
  const graph::Graph& graph() const { return graph_; }

  const Point& point(int v) const { return points_[static_cast<std::size_t>(v)]; }
  /// Vertex id of a left-normalized point.
  int vertex_of(const Point& pt) const;
  /// Dot product of two points over F_q.
  gf::Elem dot(const Point& a, const Point& b) const;

  bool is_quadric(int v) const { return type_[static_cast<std::size_t>(v)] == VertexType::kQuadric; }
  VertexType type(int v) const { return type_[static_cast<std::size_t>(v)]; }
  /// All quadric vertex ids (|W(q)| = q + 1), ascending.
  const std::vector<int>& quadrics() const { return quadrics_; }

  int count(VertexType t) const;

 private:
  int q_;
  int n_;
  // Shared process-wide table (gf::shared_field): constructing many
  // PolarFly instances for the same q runs the field search once.
  std::shared_ptr<const gf::Field> field_;
  graph::Graph graph_;
  std::vector<Point> points_;
  std::vector<VertexType> type_;
  std::vector<int> quadrics_;
};

}  // namespace pfar::polarfly
