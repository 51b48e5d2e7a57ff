#pragma once

#include <cstdint>
#include <string>

#include "core/planner.hpp"

namespace pfar::core {

/// Version tag of the plan-construction pipeline. Baked into every
/// serialized plan: bump it whenever a change makes previously built
/// plans stale (tree construction order, edge-id assignment, bandwidth
/// solver semantics, ...). Old plan files are then rejected at parse time
/// instead of being silently reused.
extern const char kBuilderVersion[];

/// FNV-1a 64-bit hash, the checksum used by the plan format.
std::uint64_t fnv1a64(const std::string& data);

/// Serialized form of a complete AllreducePlan — topology edge list,
/// trees, and the Algorithm 1 bandwidth solution — so a control plane can
/// compute a plan once, distribute it to router configuration agents, and
/// memoize it on disk without re-running any construction. It is the one
/// plan file format: the edge list names the labeling the trees were
/// built on (polarity labels for kLowDepth and kSingleTree, Singer labels
/// for kEdgeDisjoint).
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
/// Parents use -1 at the root. Doubles round-trip exactly (hex floats);
/// the checksum line rejects truncated or corrupted payloads.
std::string serialize_plan(const AllreducePlan& plan, int starter);

struct ParsedPlan {
  AllreducePlan plan;
  int starter = 0;
};

/// Inverse of serialize_plan. Throws std::invalid_argument on malformed
/// input (counts, ranges, a parent vector that is no rooted tree, a tree
/// edge outside the file's edge list), checksum mismatch, or a
/// builder-version tag that differs from this binary's kBuilderVersion.
ParsedPlan parse_plan(const std::string& text);

}  // namespace pfar::core
