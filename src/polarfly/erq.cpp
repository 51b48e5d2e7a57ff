#include "polarfly/erq.hpp"

#include <stdexcept>

#include "util/contracts.hpp"

namespace pfar::polarfly {

PolarFly::PolarFly(int q)
    : q_(q), n_(q * q + q + 1), field_(gf::shared_field(q)), graph_(n_) {
  points_.resize(static_cast<std::size_t>(n_));
  // Vertex ids: [1,y,z] -> y*q + z; [0,1,z] -> q^2 + z; [0,0,1] -> q^2 + q.
  for (gf::Elem y = 0; y < q_; ++y) {
    for (gf::Elem z = 0; z < q_; ++z) {
      points_[static_cast<std::size_t>(y * q_ + z)] = Point{1, y, z};
    }
  }
  for (gf::Elem z = 0; z < q_; ++z) {
    points_[static_cast<std::size_t>(q_ * q_ + z)] = Point{0, 1, z};
  }
  points_[static_cast<std::size_t>(q_ * q_ + q_)] = Point{0, 0, 1};

  // For each vertex, its neighbors are the projective points of the 2-dim
  // orthogonal complement of its vector: a line with q+1 points. Solving
  // the incidence equation per normalized shape ([1,a,b], [0,1,c],
  // [0,0,1]) yields every neighbor already in canonical coordinates, so
  // the hot loop needs no inversions or renormalization — just one
  // multiply-add per point and the vertex-id arithmetic.
  const gf::Field& f = *field_;
  graph_.reserve(n_ * (q_ + 1) / 2, q_ + 1);
  for (int v = 0; v < n_; ++v) {
    const Point& pt = points_[static_cast<std::size_t>(v)];
    auto link = [&](int w) {
      if (w > v) graph_.add_edge(v, w);  // each undirected edge added once
    };
    if (pt.z != 0) {
      const gf::Elem niz = f.neg(f.inv(pt.z));
      // [1,a,b]: x + a*y + b*z = 0  ->  b = -(x + a*y)/z, one per a.
      for (gf::Elem a = 0; a < q_; ++a) {
        const gf::Elem b = f.mul(f.add(pt.x, f.mul(a, pt.y)), niz);
        link(a * q_ + b);
      }
      // [0,1,c]: y + c*z = 0  ->  c = -y/z.
      link(q_ * q_ + f.mul(pt.y, niz));
    } else if (pt.y != 0) {
      // [1,a,b]: x + a*y = 0 fixes a; b is free. [0,0,1] always works.
      const gf::Elem a = f.mul(pt.x, f.neg(f.inv(pt.y)));
      for (gf::Elem b = 0; b < q_; ++b) link(a * q_ + b);
      link(q_ * q_ + q_);
    } else {
      // pt = [1,0,0]: the polar line is x = 0, i.e. [0,1,c] and [0,0,1].
      for (gf::Elem c = 0; c < q_; ++c) link(q_ * q_ + c);
      link(q_ * q_ + q_);
    }
  }
  graph_.finalize();

  // Classification: quadrics first, then V1 = neighbors of quadrics.
  type_.assign(static_cast<std::size_t>(n_), VertexType::kV2);
  for (int v = 0; v < n_; ++v) {
    if (dot(points_[static_cast<std::size_t>(v)], points_[static_cast<std::size_t>(v)]) == 0) {
      type_[static_cast<std::size_t>(v)] = VertexType::kQuadric;
      quadrics_.push_back(v);
    }
  }
  for (int w : quadrics_) {
    for (int u : graph_.neighbors(w)) {
      if (type_[static_cast<std::size_t>(u)] != VertexType::kQuadric) type_[static_cast<std::size_t>(u)] = VertexType::kV1;
    }
  }

  // Brown-graph structure (Section 6 / Table 1): |W| = q+1 quadrics, and
  // for odd q the non-quadrics split into |V1| = q(q+1)/2 neighbors of
  // quadrics and |V2| = q(q-1)/2 others. Even q degenerates: every
  // non-quadric is adjacent to a quadric, so V2 is empty.
  PFAR_ENSURE(static_cast<int>(quadrics_.size()) == q_ + 1, q_,
              quadrics_.size());
  const int v1 = count(VertexType::kV1);
  const int v2 = count(VertexType::kV2);
  PFAR_ENSURE(v1 + v2 + static_cast<int>(quadrics_.size()) == n_, q_, v1, v2,
              n_);
  if (q_ % 2 == 1) {
    PFAR_ENSURE(v1 == q_ * (q_ + 1) / 2, q_, v1);
    PFAR_ENSURE(v2 == q_ * (q_ - 1) / 2, q_, v2);
  } else {
    PFAR_ENSURE(v2 == 0, q_, v2);
  }

#if PFAR_AUDIT_ENABLED
  // Degree law: quadrics are the self-orthogonal points with degree q
  // (their polar line contains themselves); every other vertex has degree
  // q+1 (Erdos-Renyi polarity graph).
  for (int v = 0; v < n_; ++v) {
    const bool quad = type_[static_cast<std::size_t>(v)] == VertexType::kQuadric;
    PFAR_INVARIANT(graph_.degree(v) == (quad ? q_ : q_ + 1), v, q_,
                   graph_.degree(v));
  }
#endif
}

int PolarFly::vertex_of(const Point& pt) const {
  if (pt.x == 1) return pt.y * q_ + pt.z;
  if (pt.x == 0 && pt.y == 1) return q_ * q_ + pt.z;
  if (pt.x == 0 && pt.y == 0 && pt.z == 1) return q_ * q_ + q_;
  throw std::invalid_argument("PolarFly::vertex_of: point not normalized");
}

gf::Elem PolarFly::dot(const Point& a, const Point& b) const {
  const gf::Field& f = *field_;
  gf::Elem s = f.mul(a.x, b.x);
  s = f.add(s, f.mul(a.y, b.y));
  s = f.add(s, f.mul(a.z, b.z));
  return s;
}

int PolarFly::count(VertexType t) const {
  int c = 0;
  for (int v = 0; v < n_; ++v) {
    if (type_[static_cast<std::size_t>(v)] == t) ++c;
  }
  return c;
}

}  // namespace pfar::polarfly
