#include "topo/topologies.hpp"

#include "gf/field.hpp"
#include "util/numeric.hpp"

#include <stdexcept>

namespace pfar::topo {
namespace {

int product(const std::vector<int>& dims) {
  int n = 1;
  for (int d : dims) {
    if (d < 2) throw std::invalid_argument("topology: dimension < 2");
    n *= d;
  }
  return n;
}

// Mixed-radix coordinate <-> id helpers.
std::vector<int> coords_of(int id, const std::vector<int>& dims) {
  std::vector<int> c(dims.size());
  for (std::size_t i = 0; i < dims.size(); ++i) {
    c[i] = id % dims[i];
    id /= dims[i];
  }
  return c;
}

int id_of(const std::vector<int>& c, const std::vector<int>& dims) {
  int id = 0;
  for (std::size_t i = dims.size(); i-- > 0;) {
    id = id * dims[i] + c[i];
  }
  return id;
}

}  // namespace

graph::Graph torus(const std::vector<int>& dims) {
  const int n = product(dims);
  graph::Graph g(n);
  for (int v = 0; v < n; ++v) {
    auto c = coords_of(v, dims);
    for (std::size_t axis = 0; axis < dims.size(); ++axis) {
      // +1 neighbor only (each edge added once).
      if (c[axis] + 1 < dims[axis]) {
        auto u = c;
        ++u[axis];
        g.add_edge(v, id_of(u, dims));
      } else if (dims[axis] >= 3) {
        auto u = c;
        u[axis] = 0;
        g.add_edge(v, id_of(u, dims));
      }
    }
  }
  g.finalize();
  return g;
}

graph::Graph hypercube(int d) {
  if (d < 1 || d > 20) throw std::invalid_argument("hypercube: bad d");
  const int n = 1 << d;
  graph::Graph g(n);
  for (int v = 0; v < n; ++v) {
    for (int bit = 0; bit < d; ++bit) {
      const int u = v ^ (1 << bit);
      if (u > v) g.add_edge(v, u);
    }
  }
  g.finalize();
  return g;
}

graph::Graph hyperx(const std::vector<int>& dims) {
  const int n = product(dims);
  graph::Graph g(n);
  for (int v = 0; v < n; ++v) {
    auto c = coords_of(v, dims);
    for (std::size_t axis = 0; axis < dims.size(); ++axis) {
      // All-to-all in this axis; add edges toward larger coordinates only.
      for (int k = c[axis] + 1; k < dims[axis]; ++k) {
        auto u = c;
        u[axis] = k;
        g.add_edge(v, id_of(u, dims));
      }
    }
  }
  g.finalize();
  return g;
}

graph::Graph slimfly(int q) {
  int p = 0, a = 0;
  if (!util::is_prime_power(q, &p, &a) || q % 4 != 1) {
    throw std::invalid_argument(
        "slimfly: q must be a prime power with q % 4 == 1");
  }
  const gf::Field f(q);
  // X = non-zero squares (even powers of a primitive element), X' = the
  // non-squares. q == 1 mod 4 makes -1 a square, so both sets are
  // symmetric and the intra-column relations are undirected.
  std::vector<char> is_square(static_cast<std::size_t>(q), 0);
  for (gf::Elem x = 1; x < q; ++x) {
    is_square[static_cast<std::size_t>(f.mul(x, x))] = 1;
  }

  // Vertex ids: (group, x, y) -> group * q^2 + x * q + y.
  const int n = 2 * q * q;
  graph::Graph g(n);
  const auto id = [q](int group, gf::Elem x, gf::Elem y) {
    return group * q * q + x * q + y;
  };
  for (gf::Elem x = 0; x < q; ++x) {
    for (gf::Elem y = 0; y < q; ++y) {
      for (gf::Elem y2 = y + 1; y2 < q; ++y2) {
        const gf::Elem diff = f.sub(y2, y);
        if (is_square[static_cast<std::size_t>(diff)]) g.add_edge(id(0, x, y), id(0, x, y2));
        if (!is_square[static_cast<std::size_t>(diff)]) g.add_edge(id(1, x, y), id(1, x, y2));
      }
    }
  }
  for (gf::Elem x = 0; x < q; ++x) {
    for (gf::Elem y = 0; y < q; ++y) {
      for (gf::Elem m = 0; m < q; ++m) {
        // (0, x, y) ~ (1, m, c) iff y = m x + c.
        const gf::Elem c = f.sub(y, f.mul(m, x));
        g.add_edge(id(0, x, y), id(1, m, c));
      }
    }
  }
  g.finalize();
  return g;
}

int tree_packing_bound(const graph::Graph& g) {
  if (g.num_vertices() < 2) return 0;
  return g.num_edges() / (g.num_vertices() - 1);
}

TopologyStats describe(const std::string& name, const graph::Graph& g) {
  TopologyStats s;
  s.name = name;
  s.nodes = g.num_vertices();
  s.edges = g.num_edges();
  s.radix = g.max_degree();
  s.diameter = g.diameter();
  s.packing_bound = tree_packing_bound(g);
  return s;
}

}  // namespace pfar::topo
