#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "trees/spanning_tree.hpp"

namespace pfar::core {

/// Serialized form of a planned tree set: a small line-oriented text
/// format so a control plane can compute trees once and distribute them
/// to router configuration agents.
///
///   pfar-trees 1
///   q <q>
///   n <vertices>
///   trees <count>
///   tree <root> <parent_0> ... <parent_{n-1}>     (repeated)
///
/// Parents use -1 at the root. Parsing validates structure (counts,
/// ranges, single root) and SpanningTree's own acyclicity check.
std::string serialize_trees(int q, const std::vector<trees::SpanningTree>& ts);

struct ParsedTrees {
  int q = 0;
  std::vector<trees::SpanningTree> trees;
};

/// Inverse of serialize_trees; throws std::invalid_argument with a
/// line-specific message on malformed input.
ParsedTrees parse_trees(const std::string& text);

/// Version tag of the plan-construction pipeline. Baked into every
/// serialized plan: bump it whenever a change makes previously built
/// plans stale (tree construction order, edge-id assignment, bandwidth
/// solver semantics, ...). Old plan files are then rejected at parse time
/// instead of being silently reused.
extern const char kBuilderVersion[];

/// FNV-1a 64-bit hash, the checksum used by the plan format.
std::uint64_t fnv1a64(const std::string& data);

/// Serialized form of a complete AllreducePlan — topology edge list,
/// trees, and the Algorithm 1 bandwidth solution — so a plan can be
/// memoized on disk and reloaded without re-running any construction.
///
///   pfar-plan 1
///   builder <kBuilderVersion>
///   q <q>
///   solution <0|1|2>
///   starter <index>
///   n <vertices>
///   edges <count>
///   e <u> <v>                                  (repeated, edge-id order)
///   trees <count>
///   tree <root> <parent_0> ... <parent_{n-1}>  (repeated)
///   bw <aggregate> <bw_0> ... <bw_{t-1}>       (C99 %a hex floats)
///   checksum <fnv1a64 of everything above, lowercase hex>
///
/// Doubles round-trip exactly (hex floats); the checksum line rejects
/// truncated or corrupted payloads.
std::string serialize_plan(const AllreducePlan& plan, int starter);

struct ParsedPlan {
  AllreducePlan plan;
  int starter = 0;
};

/// Inverse of serialize_plan. Throws std::invalid_argument on malformed
/// input, checksum mismatch, or a builder-version tag that differs from
/// this binary's kBuilderVersion.
ParsedPlan parse_plan(const std::string& text);

}  // namespace pfar::core
