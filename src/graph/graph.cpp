#include "graph/graph.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "util/contracts.hpp"

namespace pfar::graph {

Graph::Graph(int n) : n_(n), build_adj_(static_cast<std::size_t>(n)) {
  if (n < 0) throw std::invalid_argument("Graph: negative vertex count");
}

void Graph::reserve(int edge_count, int degree_hint) {
  if (finalized_) return;
  if (edge_count > 0) {
    edges_.reserve(edges_.size() + static_cast<std::size_t>(edge_count));
  }
  if (degree_hint > 0) {
    for (auto& row : build_adj_) {
      row.reserve(static_cast<std::size_t>(degree_hint));
    }
  }
}

void Graph::add_edge(int u, int v) {
  if (u < 0 || v < 0 || u >= n_ || v >= n_) {
    throw std::out_of_range("Graph::add_edge: vertex out of range");
  }
  if (u == v) throw std::invalid_argument("Graph::add_edge: self-loop");
  if (finalized_) throw std::logic_error("Graph::add_edge after finalize");
  build_adj_[static_cast<std::size_t>(u)].push_back(v);
  build_adj_[static_cast<std::size_t>(v)].push_back(u);
  edges_.emplace_back(u, v);
}

void Graph::finalize() {
  // Edge ids are the lexicographic rank of the normalized edge, exactly as
  // in the seed implementation; duplicate edges collide here. Generators
  // that emit edges grouped by ascending first endpoint (PolarFly polar
  // lines, Singer difference sets, ...) only need their short per-vertex
  // runs sorted, which beats a full O(E log E) sort on the hot path.
  const bool grouped = std::is_sorted(
      edges_.begin(), edges_.end(),
      [](const Edge& a, const Edge& b) { return a.u < b.u; });
  if (grouped) {
    auto run = edges_.begin();
    while (run != edges_.end()) {
      auto end = run + 1;
      while (end != edges_.end() && end->u == run->u) ++end;
      std::sort(run, end);
      run = end;
    }
  } else {
    std::sort(edges_.begin(), edges_.end());
  }
  if (std::adjacent_find(edges_.begin(), edges_.end()) != edges_.end()) {
    throw std::logic_error("Graph::finalize: duplicate edge");
  }

  // Counting-sort CSR build. Appending both endpoints of the id-sorted edge
  // list leaves every row sorted ascending: all edges {w, u} with w < u
  // precede all edges {u, v} with v > u in lexicographic order, and each
  // group arrives in increasing order of the other endpoint.
  offsets_.assign(static_cast<std::size_t>(n_ + 1), 0);
  for (const Edge& e : edges_) {
    ++offsets_[static_cast<std::size_t>(e.u + 1)];
    ++offsets_[static_cast<std::size_t>(e.v + 1)];
  }
  for (int v = 0; v < n_; ++v) offsets_[static_cast<std::size_t>(v + 1)] += offsets_[static_cast<std::size_t>(v)];
  csr_adj_.resize(static_cast<std::size_t>(offsets_[static_cast<std::size_t>(n_)]));
  csr_eid_.resize(static_cast<std::size_t>(offsets_[static_cast<std::size_t>(n_)]));
  std::vector<int> cursor(offsets_.begin(), offsets_.end() - 1);
  for (int id = 0; id < static_cast<int>(edges_.size()); ++id) {
    const Edge& e = edges_[static_cast<std::size_t>(id)];
    csr_adj_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)])] = e.v;
    csr_eid_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)]++)] = id;
    csr_adj_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)])] = e.u;
    csr_eid_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.v)]++)] = id;
  }

  build_adj_.clear();
  build_adj_.shrink_to_fit();
  finalized_ = true;

  // CSR shape contract: offsets are monotone, cover 2|E| endpoint slots,
  // and every cursor ran exactly to the start of the next row.
  PFAR_ENSURE(offsets_[0] == 0, n_);
  for (int v = 0; v < n_; ++v) {
    PFAR_ENSURE(offsets_[static_cast<std::size_t>(v)] <=
                    offsets_[static_cast<std::size_t>(v + 1)],
                v, n_);
    PFAR_ENSURE(cursor[static_cast<std::size_t>(v)] ==
                    offsets_[static_cast<std::size_t>(v + 1)],
                v, n_);
  }
  PFAR_ENSURE(offsets_[static_cast<std::size_t>(n_)] ==
                  2 * static_cast<int>(edges_.size()),
              n_, edges_.size());

#if PFAR_AUDIT_ENABLED
  for (int v = 0; v < n_; ++v) {
    const auto row = neighbors(v);
    const auto eids = neighbor_edge_ids(v);
    PFAR_INVARIANT(std::is_sorted(row.begin(), row.end()), v);
    PFAR_INVARIANT(
        std::adjacent_find(row.begin(), row.end()) == row.end(), v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      // Edge-id rank contract: eid is the lexicographic rank of the
      // normalized edge, so edges_[eid] must be exactly {min, max}.
      const int w = row[i];
      const int eid = eids[i];
      PFAR_INVARIANT(eid >= 0 && eid < static_cast<int>(edges_.size()), v, w,
                     eid);
      const Edge& e = edges_[static_cast<std::size_t>(eid)];
      PFAR_INVARIANT(e.u == std::min(v, w) && e.v == std::max(v, w), v, w,
                     eid, e.u, e.v);
    }
  }
#endif
}

IntSpan Graph::neighbors(int v) const {
  if (!finalized_) {
    const auto& list = build_adj_[static_cast<std::size_t>(v)];
    return IntSpan(list.data(), list.data() + list.size());
  }
  return IntSpan(csr_adj_.data() + offsets_[static_cast<std::size_t>(v)], csr_adj_.data() + offsets_[static_cast<std::size_t>(v + 1)]);
}

IntSpan Graph::neighbor_edge_ids(int v) const {
  if (!finalized_) {
    throw std::logic_error("Graph::neighbor_edge_ids before finalize");
  }
  return IntSpan(csr_eid_.data() + offsets_[static_cast<std::size_t>(v)], csr_eid_.data() + offsets_[static_cast<std::size_t>(v + 1)]);
}

int Graph::degree(int v) const {
  if (!finalized_) return static_cast<int>(build_adj_[static_cast<std::size_t>(v)].size());
  return offsets_[static_cast<std::size_t>(v + 1)] - offsets_[static_cast<std::size_t>(v)];
}

int Graph::edge_id(int u, int v) const {
  if (!finalized_) throw std::logic_error("Graph::edge_id before finalize");
  if (u == v || u < 0 || v < 0 || u >= n_ || v >= n_) return -1;
  const auto row = neighbors(u);
  const auto it = std::lower_bound(row.begin(), row.end(), v);
  if (it == row.end() || *it != v) return -1;
  return csr_eid_[static_cast<std::size_t>(offsets_[static_cast<std::size_t>(u)]) + static_cast<std::size_t>(it - row.begin())];
}

int Graph::min_degree() const {
  int best = n_ == 0 ? 0 : degree(0);
  for (int v = 1; v < n_; ++v) best = std::min(best, degree(v));
  return best;
}

int Graph::max_degree() const {
  int best = 0;
  for (int v = 0; v < n_; ++v) best = std::max(best, degree(v));
  return best;
}

std::vector<int> Graph::bfs_distances(int src) const {
  BfsTree tree;
  bfs_tree(src, tree);
  return std::move(tree.dist);
}

void Graph::bfs_tree(int root, BfsTree& out) const {
  PFAR_REQUIRE(root >= 0 && root < n_, root, n_);
  const auto n = static_cast<std::size_t>(n_);
  out.parent.assign(n, -1);
  out.dist.assign(n, -1);
  out.order.clear();
  out.order.reserve(n);
  out.dist[static_cast<std::size_t>(root)] = 0;
  out.order.push_back(root);
  // `order` doubles as the FIFO queue: its unread suffix is the frontier.
  for (std::size_t head = 0; head < out.order.size(); ++head) {
    const int u = out.order[head];
    for (int w : neighbors(u)) {
      if (out.dist[static_cast<std::size_t>(w)] < 0) {
        out.dist[static_cast<std::size_t>(w)] =
            out.dist[static_cast<std::size_t>(u)] + 1;
        out.parent[static_cast<std::size_t>(w)] = u;
        out.order.push_back(w);
      }
    }
  }
}

bool Graph::is_connected() const {
  if (n_ == 0) return true;
  const auto dist = bfs_distances(0);
  return std::all_of(dist.begin(), dist.end(), [](int d) { return d >= 0; });
}

int Graph::diameter() const {
  int best = 0;
  for (int v = 0; v < n_; ++v) {
    const auto dist = bfs_distances(v);
    for (int d : dist) {
      if (d < 0) return -1;
      best = std::max(best, d);
    }
  }
  return best;
}

std::vector<int> parent_links(const Graph& g,
                              std::span<const IntSpan> parents) {
  const int n = g.num_vertices();
  const std::size_t un = static_cast<std::size_t>(n);
  for (const IntSpan& tree : parents) {
    if (tree.size() != un) {
      throw std::invalid_argument(
          "parent_links: parent array length " + std::to_string(tree.size()) +
          " != vertex count " + std::to_string(n));
    }
  }
  std::vector<int> links(parents.size() * un);
  // slot_of[w]: w's index in the row being resolved. Entries left over
  // from earlier rows are harmless: a slot counts only when the current
  // row holds w there.
  std::vector<std::size_t> slot_of(un, 0);
  for (int v = 0; v < n; ++v) {
    const IntSpan row = g.neighbors(v);
    const IntSpan ids = g.neighbor_edge_ids(v);
    for (std::size_t i = 0; i < row.size(); ++i) {
      slot_of[static_cast<std::size_t>(row[i])] = i;
    }
    for (std::size_t t = 0; t < parents.size(); ++t) {
      const int p = parents[t][static_cast<std::size_t>(v)];
      int id = -1;
      if (p != -1) {
        const std::size_t s = p >= 0 && p < n
                                  ? slot_of[static_cast<std::size_t>(p)]
                                  : row.size();
        if (s >= row.size() || row[s] != p) {
          throw std::invalid_argument(
              "parent_links: parent " + std::to_string(p) + " of vertex " +
              std::to_string(v) + " in tree " + std::to_string(t) +
              " is not a neighbor");
        }
        id = ids[s];
      }
      links[t * un + static_cast<std::size_t>(v)] = id;
    }
  }
  return links;
}

}  // namespace pfar::graph
