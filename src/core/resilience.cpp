#include "core/resilience.hpp"

#include <algorithm>
#include <span>
#include <stdexcept>

#include "trees/packing.hpp"
#include "util/contracts.hpp"

namespace pfar::core {

graph::Graph residual_graph(const graph::Graph& original,
                            const std::vector<char>& removed) {
  PFAR_REQUIRE(removed.size() == static_cast<std::size_t>(original.num_edges()),
               removed.size(), original.num_edges());
  graph::Graph residual(original.num_vertices());
  const auto& edges = original.edges();
  for (std::size_t e = 0; e < edges.size(); ++e) {
    if (!removed[e]) residual.add_edge(edges[e].u, edges[e].v);
  }
  residual.finalize();
  return residual;
}

std::shared_ptr<graph::Graph> remove_links(
    const graph::Graph& original, const std::vector<graph::Edge>& failed) {
  std::vector<char> removed(static_cast<std::size_t>(original.num_edges()), 0);
  for (const auto& e : failed) {
    const int id = original.edge_id(e.u, e.v);
    if (id < 0) {
      throw std::invalid_argument("remove_links: link not in topology");
    }
    removed[static_cast<std::size_t>(id)] = 1;
  }
  auto residual =
      std::make_shared<graph::Graph>(residual_graph(original, removed));
  if (!residual->is_connected()) {
    throw std::runtime_error("remove_links: residual topology disconnected");
  }
  PFAR_ENSURE(residual->num_vertices() == original.num_vertices(),
              residual->num_vertices(), original.num_vertices());
  return residual;
}

std::vector<trees::SpanningTree> surviving_trees(
    const graph::Graph& original,
    const std::vector<trees::SpanningTree>& original_trees,
    const std::vector<graph::Edge>& failed) {
  std::vector<char> is_failed(static_cast<std::size_t>(original.num_edges()), 0);
  for (const auto& e : failed) {
    const int id = original.edge_id(e.u, e.v);
    if (id >= 0) is_failed[static_cast<std::size_t>(id)] = 1;
  }
  const std::vector<int> links = trees::tree_links(original, original_trees);
  const std::size_t n = static_cast<std::size_t>(original.num_vertices());
  std::vector<trees::SpanningTree> out;
  for (std::size_t t = 0; t < original_trees.size(); ++t) {
    const std::span<const int> row(links.data() + t * n, n);
    const bool hit = std::any_of(row.begin(), row.end(), [&](int id) {
      return id >= 0 && is_failed[static_cast<std::size_t>(id)];
    });
    if (!hit) out.push_back(original_trees[t]);
  }
  PFAR_ENSURE(out.size() <= original_trees.size(), out.size(),
              original_trees.size());
  return out;
}

DegradedPlan degrade_keep_surviving(
    const graph::Graph& original,
    const std::vector<trees::SpanningTree>& original_trees,
    const std::vector<graph::Edge>& failed) {
  DegradedPlan plan;
  plan.topology = remove_links(original, failed);
  plan.trees = surviving_trees(original, original_trees, failed);
  if (plan.trees.empty()) {
    throw std::runtime_error(
        "degrade_keep_surviving: no tree survived; use degrade_repack");
  }
  plan.bandwidths = model::compute_tree_bandwidths(*plan.topology,
                                                   plan.trees, 1.0);
  PFAR_ENSURE(plan.topology != nullptr && !plan.trees.empty(),
              plan.trees.size());
  return plan;
}

DegradedPlan degrade_repack(const graph::Graph& original,
                            const std::vector<graph::Edge>& failed,
                            int max_trees) {
  DegradedPlan plan;
  plan.topology = remove_links(original, failed);
  plan.trees = trees::greedy_tree_packing(*plan.topology, max_trees);
  if (plan.trees.empty()) {
    throw std::runtime_error("degrade_repack: no spanning tree found");
  }
  plan.bandwidths = model::compute_tree_bandwidths(*plan.topology,
                                                   plan.trees, 1.0);
  PFAR_ENSURE(plan.topology != nullptr && !plan.trees.empty(),
              plan.trees.size());
  return plan;
}

}  // namespace pfar::core
