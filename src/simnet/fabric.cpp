#include <algorithm>
#include <cstdint>
#include <vector>

#include "simnet/sim_internal.hpp"

namespace pfar::simnet::detail {

// pfar-lint: allow(contract-coverage) internal to simnet; SpanningTree guarantees each tree's shape and detail::validate_simulation its fit to the topology, which the link table resolves
Fabric build_fabric(const graph::Graph& topology,
                    const std::vector<trees::SpanningTree>& trees,
                    const std::vector<int>& links, SimResult& result) {
  Fabric f;
  f.n = topology.num_vertices();
  f.num_trees = static_cast<int>(trees.size());
  f.num_dlinks = 2 * topology.num_edges();
  const int n = f.n;
  const std::size_t num_states =
      static_cast<std::size_t>(n) * static_cast<std::size_t>(f.num_trees);

  f.root_state.resize(static_cast<std::size_t>(f.num_trees));
  f.child_base.assign(num_states + 1, 0);
  for (int t = 0; t < f.num_trees; ++t) {
    const auto& tree = trees[static_cast<std::size_t>(t)];
    f.root_state[static_cast<std::size_t>(t)] = t * n + tree.root();
    for (int v = 0; v < n; ++v) {
      const int p = tree.parent(v);
      if (p >= 0) ++f.child_base[static_cast<std::size_t>(t * n + p) + 1];
    }
  }
  for (std::size_t s = 0; s < num_states; ++s) {
    f.child_base[s + 1] += f.child_base[s];
  }
  f.child_vc.assign(static_cast<std::size_t>(f.child_base[num_states]), -1);
  f.parent_bcast_vc.assign(num_states, -1);
  f.up_dlink.assign(num_states, -1);
  f.stage_dlink.assign(static_cast<std::size_t>(f.child_base[num_states]), -1);

  const auto new_vc = [&](bool reduce, std::int32_t src_state,
                          std::int32_t dst_state, std::int32_t dlink,
                          std::int32_t stage) {
    f.vc_is_reduce.push_back(reduce ? 1 : 0);
    f.vc_src_state.push_back(src_state);
    f.vc_dst_state.push_back(dst_state);
    f.vc_dlink.push_back(dlink);
    f.vc_stage.push_back(stage);
    return static_cast<std::int32_t>(f.vc_dlink.size()) - 1;
  };
  // Next free child slot per state; children claim slots in node order.
  std::vector<std::int32_t> next_slot(f.child_base.begin(),
                                      f.child_base.end() - 1);
  for (int t = 0; t < f.num_trees; ++t) {
    const auto& parent = trees[static_cast<std::size_t>(t)].parents();
    const std::size_t base =
        static_cast<std::size_t>(t) * static_cast<std::size_t>(n);
    for (int v = 0; v < n; ++v) {
      const int p = parent[static_cast<std::size_t>(v)];
      if (p < 0) continue;
      const std::int32_t s = t * n + v;
      const std::int32_t ps = t * n + p;
      const std::int32_t slot = next_slot[static_cast<std::size_t>(ps)]++;
      // The reduce VC runs v -> p, the broadcast VC p -> v.
      const std::int32_t up =
          2 * links[base + static_cast<std::size_t>(v)] + (v > p ? 1 : 0);
      f.child_vc[static_cast<std::size_t>(slot)] = new_vc(true, s, ps, up, -1);
      f.up_dlink[static_cast<std::size_t>(s)] = up;
      f.parent_bcast_vc[static_cast<std::size_t>(s)] =
          new_vc(false, ps, s, up ^ 1, slot);
      f.stage_dlink[static_cast<std::size_t>(slot)] = up ^ 1;
    }
  }

  // Link CSR over VC ids, and the Lemma 7.8 accounting: distinct trees
  // consuming each input port as a reduction input.
  f.link_base.assign(static_cast<std::size_t>(f.num_dlinks) + 1, 0);
  std::vector<int> reductions_per_port(static_cast<std::size_t>(f.num_dlinks),
                                       0);
  for (int id = 0; id < f.num_vcs(); ++id) {
    const std::size_t d =
        static_cast<std::size_t>(f.vc_dlink[static_cast<std::size_t>(id)]);
    ++f.link_base[d + 1];
    reductions_per_port[d] += f.vc_is_reduce[static_cast<std::size_t>(id)];
  }
  for (int d = 0; d < f.num_dlinks; ++d) {
    const std::size_t di = static_cast<std::size_t>(d);
    if (f.link_base[di + 1] > 0) f.active_dlinks.push_back(d);
    result.max_vcs_per_link =
        std::max(result.max_vcs_per_link, f.link_base[di + 1]);
    result.max_reductions_per_input_port = std::max(
        result.max_reductions_per_input_port, reductions_per_port[di]);
    f.link_base[di + 1] += f.link_base[di];
  }
  f.link_vc.resize(f.vc_dlink.size());
  std::vector<std::int32_t> next_vc(f.link_base.begin(), f.link_base.end() - 1);
  for (int id = 0; id < f.num_vcs(); ++id) {
    const std::size_t d =
        static_cast<std::size_t>(f.vc_dlink[static_cast<std::size_t>(id)]);
    f.link_vc[static_cast<std::size_t>(next_vc[d]++)] = id;
  }
  result.num_vcs = f.num_vcs();
  return f;
}

}  // namespace pfar::simnet::detail
