#include "oracle/projective_plane.hpp"

#include <algorithm>
#include <stdexcept>

namespace pfar::oracle {
namespace {

// Left-normalized triple -> dense id, mirroring PolarFly's vertex map.
int id_of(const polarfly::Point& pt, int q) {
  if (pt.x == 1) return pt.y * q + pt.z;
  if (pt.x == 0 && pt.y == 1) return q * q + pt.z;
  return q * q + q;  // [0,0,1]
}

}  // namespace

ProjectivePlane::ProjectivePlane(int q)
    : q_(q), n_(q * q + q + 1), field_(q) {
  points_.resize(static_cast<std::size_t>(n_));
  for (gf::Elem y = 0; y < q_; ++y) {
    for (gf::Elem z = 0; z < q_; ++z) points_[static_cast<std::size_t>(y * q_ + z)] = polarfly::Point{1, y, z};
  }
  for (gf::Elem z = 0; z < q_; ++z) points_[static_cast<std::size_t>(q_ * q_ + z)] = polarfly::Point{0, 1, z};
  points_[static_cast<std::size_t>(q_ * q_ + q_)] = polarfly::Point{0, 0, 1};

  // Enumerate each line's points via the orthogonal-complement basis, the
  // same parametrization PolarFly uses for neighbors (but keeping the
  // point equal to the line coefficients when it is self-incident).
  const gf::Field& f = field_;
  line_points_.resize(static_cast<std::size_t>(n_));
  point_lines_.resize(static_cast<std::size_t>(n_));
  for (int j = 0; j < n_; ++j) {
    const polarfly::Point& coeff = points_[static_cast<std::size_t>(j)];
    polarfly::Point b1, b2;
    if (coeff.x != 0) {
      const gf::Elem ix = f.inv(coeff.x);
      b1 = polarfly::Point{f.neg(f.mul(coeff.y, ix)), 1, 0};
      b2 = polarfly::Point{f.neg(f.mul(coeff.z, ix)), 0, 1};
    } else if (coeff.y != 0) {
      const gf::Elem iy = f.inv(coeff.y);
      b1 = polarfly::Point{1, 0, 0};
      b2 = polarfly::Point{0, f.neg(f.mul(coeff.z, iy)), 1};
    } else {
      b1 = polarfly::Point{1, 0, 0};
      b2 = polarfly::Point{0, 1, 0};
    }
    auto add_point = [&](gf::Elem x, gf::Elem y, gf::Elem z) {
      // Normalize to the left-normalized representative.
      polarfly::Point p;
      if (x != 0) {
        const gf::Elem ix = f.inv(x);
        p = polarfly::Point{1, f.mul(y, ix), f.mul(z, ix)};
      } else if (y != 0) {
        const gf::Elem iy = f.inv(y);
        p = polarfly::Point{0, 1, f.mul(z, iy)};
      } else {
        p = polarfly::Point{0, 0, 1};
      }
      line_points_[static_cast<std::size_t>(j)].push_back(id_of(p, q_));
    };
    add_point(b2.x, b2.y, b2.z);
    for (gf::Elem t = 0; t < q_; ++t) {
      add_point(f.add(b1.x, f.mul(t, b2.x)), f.add(b1.y, f.mul(t, b2.y)),
                f.add(b1.z, f.mul(t, b2.z)));
    }
    std::sort(line_points_[static_cast<std::size_t>(j)].begin(), line_points_[static_cast<std::size_t>(j)].end());
    for (int p : line_points_[static_cast<std::size_t>(j)]) point_lines_[static_cast<std::size_t>(p)].push_back(j);
  }
  for (auto& lines : point_lines_) std::sort(lines.begin(), lines.end());
}

bool ProjectivePlane::incident(int point_id, int line_id) const {
  const auto& pts = line_points_[static_cast<std::size_t>(line_id)];
  return std::binary_search(pts.begin(), pts.end(), point_id);
}

int ProjectivePlane::line_through(int p1, int p2) const {
  if (p1 == p2) throw std::invalid_argument("line_through: equal points");
  const auto& a = point_lines_[static_cast<std::size_t>(p1)];
  const auto& b = point_lines_[static_cast<std::size_t>(p2)];
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return a[i];
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  throw std::logic_error("line_through: no common line (axiom violation)");
}

int ProjectivePlane::meet(int l1, int l2) const {
  if (l1 == l2) throw std::invalid_argument("meet: equal lines");
  const auto& a = line_points_[static_cast<std::size_t>(l1)];
  const auto& b = line_points_[static_cast<std::size_t>(l2)];
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return a[i];
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  throw std::logic_error("meet: no common point (axiom violation)");
}

graph::Graph polarity_graph(const ProjectivePlane& plane) {
  graph::Graph g(plane.size());
  for (int v = 0; v < plane.size(); ++v) {
    for (int u : plane.points_on_line(plane.polar(v))) {
      if (u > v) g.add_edge(u, v);
    }
  }
  g.finalize();
  return g;
}

bool polarfly_matches_polarity_graph(const polarfly::PolarFly& pf) {
  const ProjectivePlane plane(pf.q());
  const graph::Graph pg = polarity_graph(plane);
  if (pg.num_edges() != pf.graph().num_edges()) return false;
  for (const auto& e : pg.edges()) {
    if (!pf.graph().has_edge(e.u, e.v)) return false;
  }
  return true;
}

}  // namespace pfar::oracle
