#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "core/planner.hpp"
#include "core/serialize.hpp"

namespace pfar::core {
namespace {

TEST(SerializeTest, RoundTripLowDepth) {
  const auto plan = AllreducePlanner(5).build();
  const std::string text = serialize_trees(plan.q(), plan.trees());
  const auto parsed = parse_trees(text);
  EXPECT_EQ(parsed.q, 5);
  ASSERT_EQ(parsed.trees.size(), plan.trees().size());
  for (std::size_t i = 0; i < parsed.trees.size(); ++i) {
    EXPECT_EQ(parsed.trees[i].root(), plan.trees()[i].root());
    EXPECT_EQ(parsed.trees[i].parents(), plan.trees()[i].parents());
    EXPECT_TRUE(parsed.trees[i].is_spanning_tree_of(plan.topology()));
  }
}

TEST(SerializeTest, RoundTripEdgeDisjoint) {
  const auto plan =
      AllreducePlanner(4).solution(Solution::kEdgeDisjoint).build();
  const auto parsed = parse_trees(serialize_trees(plan.q(), plan.trees()));
  EXPECT_EQ(parsed.q, 4);
  EXPECT_EQ(parsed.trees.size(), 2u);
  EXPECT_EQ(parsed.trees[0].depth(), plan.trees()[0].depth());
}

TEST(SerializeTest, FormatIsStable) {
  const auto plan = AllreducePlanner(3).build();
  const std::string text = serialize_trees(3, plan.trees());
  EXPECT_EQ(text.rfind("pfar-trees 1\nq 3\nn 13\ntrees 3\n", 0), 0u);
}

TEST(SerializeTest, ParserRejectsMalformedInput) {
  const auto plan = AllreducePlanner(3).build();
  const std::string good = serialize_trees(3, plan.trees());

  EXPECT_THROW(parse_trees(""), std::invalid_argument);
  EXPECT_THROW(parse_trees("wrong-magic 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_trees("pfar-trees 2\n"), std::invalid_argument);
  EXPECT_THROW(parse_trees("pfar-trees 1\nq 1\n"), std::invalid_argument);
  EXPECT_THROW(parse_trees(good + " extra"), std::invalid_argument);

  // Truncated parent list.
  const std::string truncated = good.substr(0, good.size() - 10);
  EXPECT_THROW(parse_trees(truncated), std::invalid_argument);

  // Out-of-range parent.
  std::string corrupted = good;
  corrupted.replace(corrupted.find("tree "), 6, "tree 99");
  EXPECT_THROW(parse_trees(corrupted), std::invalid_argument);
}

TEST(SerializeTest, ParserRejectsCyclicTree) {
  // Hand-written input whose parent vector contains a 2-cycle.
  const std::string text =
      "pfar-trees 1\nq 3\nn 4\ntrees 1\ntree 0 -1 2 1 0\n";
  EXPECT_THROW(parse_trees(text), std::invalid_argument);
}

TEST(SerializeTest, RejectsEmptySet) {
  EXPECT_THROW(serialize_trees(3, {}), std::invalid_argument);
}

// Regression: parse_plan used to accept any trailing bytes after the
// checksum line as long as they were pure whitespace, so an appended-to
// (tampered) artifact still round-tripped. The checksum line must now be
// the byte-exact final line.
TEST(SerializeTest, PlanRejectsWhitespaceAfterChecksum) {
  const std::string good = serialize_plan(AllreducePlanner(3).build(), 0);
  ASSERT_NO_THROW(parse_plan(good));

  for (const std::string& tail :
       {std::string(" "), std::string("\n"), std::string(" \n"),
        std::string("\t"), std::string("\n\n"), std::string("   \t \n")}) {
    EXPECT_THROW(parse_plan(good + tail), std::invalid_argument)
        << "accepted trailing bytes: " << ::testing::PrintToString(tail);
  }
}

TEST(SerializeTest, PlanRejectsContentAfterChecksum) {
  const std::string good = serialize_plan(AllreducePlanner(3).build(), 0);
  EXPECT_THROW(parse_plan(good + "extra"), std::invalid_argument);
  EXPECT_THROW(parse_plan(good + "checksum 0\n"), std::invalid_argument);
  // Missing the final newline is also a framing violation.
  EXPECT_THROW(parse_plan(good.substr(0, good.size() - 1)),
               std::invalid_argument);
}

// A checksummed one-tree plan on the path 0-1-...-(n-1) whose tree line
// is `tree`, and the message parse_plan throws on it ("accepted" if none).
std::string parse_path_plan(int n, const std::string& tree) {
  std::ostringstream body;
  body << "pfar-plan 1\nbuilder " << kBuilderVersion
       << "\nq 2\nsolution 0\nstarter 0\nn " << n << "\nedges " << n - 1
       << "\n";
  for (int v = 0; v + 1 < n; ++v) body << "e " << v << ' ' << v + 1 << "\n";
  body << "trees 1\n" << tree << "\nbw 0x1p+0 0x1p+0\n";
  std::ostringstream text;
  text << body.str() << "checksum " << std::hex << fnv1a64(body.str()) << "\n";
  try {
    static_cast<void>(parse_plan(text.str()));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

TEST(SerializeTest, PlanRejectsTreeEdgeOutsideTopology) {
  EXPECT_EQ(parse_path_plan(3, "tree 0 -1 0 1"), "accepted");
  // Tree 1 -> 2 -> 0 is a rooted tree, but {0, 2} is no link of the path.
  EXPECT_EQ(parse_path_plan(3, "tree 0 -1 2 0"),
            "parse_plan: tree edge not in topology");
  // A parent vector that is no tree is named as such first, even when it
  // also uses a non-link ({1, 3}).
  EXPECT_EQ(parse_path_plan(4, "tree 0 -1 3 3 1"),
            "parse_plan: invalid tree: SpanningTree: parent vector has a "
            "cycle");
}

}  // namespace
}  // namespace pfar::core
