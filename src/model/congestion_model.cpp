#include "model/congestion_model.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "util/contracts.hpp"
#include "util/numeric.hpp"

namespace pfar::model {
namespace {

bool stamped(const graph::Graph& g,
             const std::vector<trees::SpanningTree>& trees) {
  return g.stamp() != 0 &&
         std::none_of(trees.begin(), trees.end(),
                      [](const trees::SpanningTree& t) { return t.stamp() == 0; });
}

}  // namespace

TreeBandwidths max_min_fair_shares(int num_resources, const FlowRows& rows,
                                   double capacity,
                                   const std::vector<double>& capacity_scale) {
  const int num_flows = static_cast<int>(rows.offsets.size()) - 1;
  const bool weighted = !rows.multiplicity.empty();
  PFAR_REQUIRE(num_flows >= 0 && rows.offsets.front() == 0 &&
                   rows.offsets.back() == static_cast<int>(rows.resources.size()) &&
                   std::is_sorted(rows.offsets.begin(), rows.offsets.end()) &&
                   (!weighted || rows.multiplicity.size() == rows.resources.size()),
               num_flows);
  PFAR_REQUIRE(num_resources >= 0 &&
                   (capacity_scale.empty() ||
                    capacity_scale.size() == static_cast<std::size_t>(num_resources)),
               num_resources);

  // Resource -> flow incidence in CSR form (rows ascending in flow id), so
  // a bottleneck reaches exactly the flows through it.
  std::vector<int> inc_offsets(static_cast<std::size_t>(num_resources + 1), 0);
  for (int r : rows.resources) {
    PFAR_REQUIRE(r >= 0 && r < num_resources, r, num_resources);
    ++inc_offsets[static_cast<std::size_t>(r + 1)];
  }
  for (int r = 0; r < num_resources; ++r) inc_offsets[static_cast<std::size_t>(r + 1)] += inc_offsets[static_cast<std::size_t>(r)];
  std::vector<int> incidence(rows.resources.size());
  {
    std::vector<int> cursor(inc_offsets.begin(), inc_offsets.end() - 1);
    for (int t = 0; t < num_flows; ++t) {
      for (int k = rows.offsets[static_cast<std::size_t>(t)]; k < rows.offsets[static_cast<std::size_t>(t + 1)]; ++k) {
        incidence[static_cast<std::size_t>(cursor[static_cast<std::size_t>(rows.resources[static_cast<std::size_t>(k)])]++)] = t;
      }
    }
  }

  // Argmin segment tree over the cached ratios L(r)/C(r): a round touches
  // only the resources of the flows it fixes, O(k * row * log R) instead
  // of an O(R) rescan. Ties descend left-first, to the lowest id, as the
  // references' ascending strict-< scans do, and ratios come from the
  // references' own division, so every share is bit-identical. L(r), C(r)
  // and the cached ratio share one cache line: the loop is memory-bound.
  constexpr double kInf = std::numeric_limits<double>::infinity();
  struct ResourceState {
    double remaining;
    double ratio;
    int congestion;
  };
  std::vector<ResourceState> state(static_cast<std::size_t>(num_resources));
  // Unweighted, C(r) is r's incidence row length; weighted, it is the sum
  // of the multiplicities crossing r.
  for (std::size_t r = 0; r < state.size(); ++r) {
    // L(r) = B * scale[r]; a scale of exactly 1.0 leaves B unchanged.
    state[r] = {capacity_scale.empty() ? capacity : capacity * capacity_scale[r],
                kInf, weighted ? 0 : inc_offsets[r + 1] - inc_offsets[r]};
  }
  for (std::size_t k = 0; k < rows.multiplicity.size(); ++k) {
    PFAR_REQUIRE(rows.multiplicity[k] >= 1, k);
    state[static_cast<std::size_t>(rows.resources[k])].congestion += rows.multiplicity[k];
  }
  for (auto& st : state) st.ratio = st.congestion > 0 ? st.remaining / st.congestion : kInf;

  int leaves = 1;
  while (leaves < num_resources) leaves <<= 1;
  // Internal nodes only; node c's value is inner[c] for c < leaves and
  // state[c - leaves].ratio (kInf past num_resources) at the leaf level.
  std::vector<double> inner(static_cast<std::size_t>(leaves), kInf);
  const auto val = [&](int c) {
    if (c < leaves) return inner[static_cast<std::size_t>(c)];
    const int r = c - leaves;
    return r < num_resources ? state[static_cast<std::size_t>(r)].ratio : kInf;
  };
  for (int i = leaves - 1; i >= 1; --i) {
    inner[static_cast<std::size_t>(i)] = std::min(val(2 * i), val(2 * i + 1));
  }
  const auto update = [&](int r) {
    auto& st = state[static_cast<std::size_t>(r)];
    const double nv = st.congestion > 0 ? st.remaining / st.congestion : kInf;
    if (st.ratio == nv) return;
    st.ratio = nv;
    // Climb only while the subtree minimum actually changes — in the
    // paper's near-uniform tree sets most updates stop at the first level.
    for (int i = (leaves + r) / 2; i >= 1; i /= 2) {
      const double m = std::min(val(2 * i), val(2 * i + 1));
      if (inner[static_cast<std::size_t>(i)] == m) break;
      inner[static_cast<std::size_t>(i)] = m;
    }
  };

  TreeBandwidths out;
  out.per_tree.assign(static_cast<std::size_t>(num_flows), 0.0);
  std::vector<char> flow_done(static_cast<std::size_t>(num_flows), 0);

  int active = num_flows;
  while (active > 0) {
    if (val(1) == kInf) {
      throw std::logic_error(
          "max_min_fair_shares: active flows but no congested resource");
    }
    int i = 1;
    while (i < leaves) i = val(2 * i) <= val(2 * i + 1) ? 2 * i : 2 * i + 1;
    const int r_min = i - leaves;
    const double share = state[static_cast<std::size_t>(r_min)].remaining / state[static_cast<std::size_t>(r_min)].congestion;
    for (int j = inc_offsets[static_cast<std::size_t>(r_min)]; j < inc_offsets[static_cast<std::size_t>(r_min + 1)]; ++j) {
      const int t = incidence[static_cast<std::size_t>(j)];
      if (flow_done[static_cast<std::size_t>(t)]) continue;
      out.per_tree[static_cast<std::size_t>(t)] = share;
      for (int k = rows.offsets[static_cast<std::size_t>(t)]; k < rows.offsets[static_cast<std::size_t>(t + 1)]; ++k) {
        const int r = rows.resources[static_cast<std::size_t>(k)];
        auto& st = state[static_cast<std::size_t>(r)];
        // share * 1 is share exactly: unweighted rows stay bit-identical.
        const int m = weighted ? rows.multiplicity[static_cast<std::size_t>(k)] : 1;
        st.remaining = std::max(0.0, st.remaining - share * m);
        st.congestion -= m;
        update(r);
      }
      flow_done[static_cast<std::size_t>(t)] = 1;
      --active;
    }
    state[static_cast<std::size_t>(r_min)].congestion = 0;  // removed from the residual network
    update(r_min);
  }

  for (double b : out.per_tree) out.aggregate += b;
  return out;
}

TreeBandwidths compute_tree_bandwidths(
    const graph::Graph& g, const std::vector<trees::SpanningTree>& trees,
    double link_bandwidth, const std::vector<double>& capacity_scale) {
  if (link_bandwidth <= 0.0) {
    throw std::invalid_argument("compute_tree_bandwidths: bandwidth <= 0");
  }
  const int num_edges = g.num_edges();
  if (!capacity_scale.empty() &&
      capacity_scale.size() != static_cast<std::size_t>(num_edges)) {
    throw std::invalid_argument(
        "compute_tree_bandwidths: capacity_scale size != edges");
  }
  if (std::any_of(capacity_scale.begin(), capacity_scale.end(),
                  [](double s) { return !(s > 0.0) || s > 1.0; })) {
    throw std::invalid_argument("compute_tree_bandwidths: scale outside (0, 1]");
  }

  static BandwidthMemo memo;
  const bool uniform = capacity_scale.empty();
  if (uniform) {
    if (auto hit = memo.find(g, trees, link_bandwidth)) return *std::move(hit);
  }

  // One row of n-1 edge ids per tree, listing its edges by child vertex
  // (the reference's order). A validated tree has exactly one parentless
  // vertex, so dropping the roots' -1 entries leaves exactly those rows.
  const int n = g.num_vertices();
  FlowRows rows;
  rows.resources = trees::tree_links(g, trees);
  std::erase(rows.resources, -1);
  for (std::size_t t = 1; t <= trees.size(); ++t) rows.offsets.push_back(static_cast<int>(t) * (n - 1));
  auto out = max_min_fair_shares(num_edges, rows, link_bandwidth, capacity_scale);
  if (uniform) memo.store(g, trees, link_bandwidth, out);
  return out;
}

std::optional<TreeBandwidths> BandwidthMemo::find(
    const graph::Graph& g, const std::vector<trees::SpanningTree>& trees,
    double link_bandwidth) const {
  if (!stamped(g, trees)) return std::nullopt;
  util::MutexLock lock(mu_);
  if (graph_ != g.stamp() || link_bandwidth_ != link_bandwidth ||
      !std::equal(trees_.begin(), trees_.end(), trees.begin(), trees.end(),
                  [](std::uint64_t s, const trees::SpanningTree& t) {
                    return s == t.stamp();
                  })) {
    return std::nullopt;
  }
  return result_;
}

void BandwidthMemo::store(const graph::Graph& g,
                          const std::vector<trees::SpanningTree>& trees,
                          double link_bandwidth, const TreeBandwidths& result) {
  if (!stamped(g, trees)) return;
  std::vector<std::uint64_t> key(trees.size());
  std::transform(trees.begin(), trees.end(), key.begin(),
                 [](const trees::SpanningTree& t) { return t.stamp(); });
  TreeBandwidths copy = result;
  util::MutexLock lock(mu_);
  graph_ = g.stamp();
  trees_ = std::move(key);
  link_bandwidth_ = link_bandwidth;
  result_ = std::move(copy);
}

std::vector<long long> optimal_split(long long m, const TreeBandwidths& bw) {
  return util::apportion(m, bw.per_tree);
}

double optimal_polarfly_bandwidth(int q, double link_bandwidth) {
  return (q + 1) * link_bandwidth / 2.0;
}

double allreduce_rate_upper_bound(const graph::Graph& g,
                                  double link_bandwidth) {
  const int n = g.num_vertices();
  if (n < 2) {
    throw std::invalid_argument(
        "allreduce_rate_upper_bound: need at least 2 vertices");
  }
  if (link_bandwidth <= 0.0) {
    throw std::invalid_argument(
        "allreduce_rate_upper_bound: non-positive bandwidth");
  }
  const int deg_min = g.min_degree();
  if (deg_min <= 0) {
    throw std::invalid_argument(
        "allreduce_rate_upper_bound: graph has an isolated vertex");
  }
  const double spanning =
      static_cast<double>(g.num_edges()) / static_cast<double>(n - 1);
  return link_bandwidth * std::min(static_cast<double>(deg_min), spanning);
}

}  // namespace pfar::model
