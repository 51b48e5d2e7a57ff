// Round-trip and rejection tests for the plan serializer (core/serialize)
// and memoization tests for core::PlanCache: a reloaded plan must be
// exactly the plan that was stored (hex-float doubles round-trip
// bit-for-bit), every corrupted, truncated or stale-version payload must
// be rejected, and a cached plan must equal a direct build.

#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/plan_cache.hpp"
#include "core/planner.hpp"
#include "core/serialize.hpp"

namespace pfar::core {
namespace {

// Every observable of a plan, compared exactly — including doubles, which
// the %a hex-float encoding must round-trip bit-for-bit.
void expect_same_plan(const AllreducePlan& a, const AllreducePlan& b) {
  ASSERT_EQ(a.q(), b.q());
  ASSERT_EQ(a.solution(), b.solution());
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.topology().num_edges(), b.topology().num_edges());
  for (int id = 0; id < a.topology().num_edges(); ++id) {
    EXPECT_EQ(a.topology().edge(id), b.topology().edge(id));
  }
  ASSERT_EQ(a.num_trees(), b.num_trees());
  for (int t = 0; t < a.num_trees(); ++t) {
    EXPECT_EQ(a.trees()[static_cast<std::size_t>(t)].root(), b.trees()[static_cast<std::size_t>(t)].root());
    EXPECT_EQ(a.trees()[static_cast<std::size_t>(t)].parents(), b.trees()[static_cast<std::size_t>(t)].parents());
  }
  EXPECT_EQ(a.aggregate_bandwidth(), b.aggregate_bandwidth());
  ASSERT_EQ(a.bandwidths().per_tree.size(), b.bandwidths().per_tree.size());
  for (std::size_t t = 0; t < a.bandwidths().per_tree.size(); ++t) {
    EXPECT_EQ(a.bandwidths().per_tree[t], b.bandwidths().per_tree[t]);
  }
}

// Rewrites one body line of a serialized plan and re-stamps the checksum,
// so the payload passes integrity but fails semantic validation.
std::string with_line_replaced(const std::string& text,
                               const std::string& from,
                               const std::string& to) {
  const auto cpos = text.rfind("checksum ");
  EXPECT_NE(cpos, std::string::npos);
  std::string body = text.substr(0, cpos);
  const auto lpos = body.find(from);
  EXPECT_NE(lpos, std::string::npos) << from;
  body.replace(lpos, from.size(), to);
  std::ostringstream cs;
  cs << "checksum " << std::hex << fnv1a64(body) << "\n";
  return body + cs.str();
}

TEST(PlanSerializeTest, RoundTripIsExact) {
  for (const Solution s : {Solution::kLowDepth, Solution::kEdgeDisjoint,
                           Solution::kSingleTree}) {
    const AllreducePlan plan = AllreducePlanner(7).solution(s).build();
    const ParsedPlan back = parse_plan(serialize_plan(plan, 0));
    EXPECT_EQ(back.starter, 0);
    expect_same_plan(plan, back.plan);
  }
}

TEST(PlanSerializeTest, RoundTripKeepsStarter) {
  const AllreducePlan plan = AllreducePlanner(5).starter_quadric(2).build();
  const ParsedPlan back = parse_plan(serialize_plan(plan, 2));
  EXPECT_EQ(back.starter, 2);
  expect_same_plan(plan, back.plan);
}

TEST(PlanSerializeTest, RejectsEveryFlippedByte) {
  const AllreducePlan plan = AllreducePlanner(3).build();
  const std::string good = serialize_plan(plan, 0);
  ASSERT_NO_THROW(parse_plan(good));
  // Flip bytes across the payload (stride keeps the test fast); each
  // corruption must be caught — by the checksum for body bytes, by the
  // checksum-line parse for trailer bytes.
  for (std::size_t i = 0; i < good.size(); i += 7) {
    std::string bad = good;
    bad[i] ^= 0x01;
    EXPECT_THROW(parse_plan(bad), std::invalid_argument) << "byte " << i;
  }
}

TEST(PlanSerializeTest, RejectsTruncation) {
  const std::string good = serialize_plan(AllreducePlanner(3).build(), 0);
  // (Losing only the final newline keeps the payload intact and parseable;
  // every truncation that drops a data byte must throw.)
  for (const std::size_t keep :
       {good.size() - 2, good.size() / 2, std::size_t{10}, std::size_t{0}}) {
    EXPECT_THROW(parse_plan(good.substr(0, keep)), std::invalid_argument);
  }
}

TEST(PlanSerializeTest, RejectsMissingChecksum) {
  const std::string good = serialize_plan(AllreducePlanner(3).build(), 0);
  const std::string body = good.substr(0, good.rfind("checksum "));
  EXPECT_THROW(parse_plan(body), std::invalid_argument);
}

TEST(PlanSerializeTest, RejectsStaleBuilderVersion) {
  const std::string good = serialize_plan(AllreducePlanner(3).build(), 0);
  const std::string stale = with_line_replaced(
      good, std::string("builder ") + kBuilderVersion, "builder pfar-builder-0");
  try {
    parse_plan(stale);
    FAIL() << "stale builder version accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("builder version mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST(PlanSerializeTest, RejectsTreeEdgeNotInTopology) {
  // A re-stamped checksum is not enough: tree edges must exist in the
  // serialized topology.
  const AllreducePlan plan = AllreducePlanner(3).build();
  const std::string good = serialize_plan(plan, 0);
  // Vertex 0's parent in the first tree: rewrite it to a non-neighbor.
  const auto& t = plan.trees().front();
  int non_neighbor = -1;
  for (int v = 0; v < plan.num_nodes(); ++v) {
    if (v != 0 && !plan.topology().has_edge(0, v)) {
      non_neighbor = v;
      break;
    }
  }
  ASSERT_GE(non_neighbor, 0);
  std::ostringstream from, to;
  from << "tree " << t.root() << ' ' << t.parent(0);
  to << "tree " << t.root() << ' ' << non_neighbor;
  const std::string bad = with_line_replaced(good, from.str(), to.str());
  EXPECT_THROW(parse_plan(bad), std::invalid_argument);
}

TEST(PlanCacheTest, MemoryHitReturnsSameInstance) {
  PlanCache cache;
  const PlanKey key{7, Solution::kLowDepth, 0};
  const auto first = cache.get_or_build(key);
  const auto second = cache.get_or_build(key);
  EXPECT_EQ(first.get(), second.get());
  const auto stats = cache.stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.memory_hits, 1u);
}

TEST(PlanCacheTest, CachedPlanMatchesDirectBuild) {
  PlanCache cache;
  for (const Solution s : {Solution::kLowDepth, Solution::kEdgeDisjoint}) {
    const auto cached = cache.get_or_build({7, s, 0});
    const AllreducePlan direct = AllreducePlanner(7).solution(s).build();
    expect_same_plan(direct, *cached);
  }
}

TEST(PlanCacheTest, DistinctKeysDistinctPlans) {
  PlanCache cache;
  const auto low = cache.get_or_build({5, Solution::kLowDepth, 0});
  const auto ham = cache.get_or_build({5, Solution::kEdgeDisjoint, 0});
  const auto st1 = cache.get_or_build({5, Solution::kLowDepth, 1});
  EXPECT_EQ(cache.stats().misses, 3u);
  EXPECT_NE(low.get(), ham.get());
  EXPECT_NE(low.get(), st1.get());
}

TEST(PlanCacheTest, ThreadsParameterDoesNotChangeResult) {
  PlanCache a, b;
  for (const Solution s : {Solution::kLowDepth, Solution::kEdgeDisjoint}) {
    expect_same_plan(*a.get_or_build({9, s, 0}, 1),
                     *b.get_or_build({9, s, 0}, 3));
  }
}

}  // namespace
}  // namespace pfar::core
