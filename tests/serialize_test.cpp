// Format and rejection tests for the plan file (core/serialize), and the
// pfar_tool plan -> verify round trip. Round-trip exactness and the
// checksum, truncation and stale-version rejections are in
// plan_cache_test.cpp.
//
// The pfar_tool path is injected by CMake as PFAR_TOOL.

#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "core/planner.hpp"
#include "core/serialize.hpp"

namespace pfar::core {
namespace {

// The edge-disjoint trees are built on Singer labels, the low-depth trees
// on polarity labels: the two ER_q are isomorphic but not equal, so a plan
// file must carry its own edge list.
TEST(SerializeTest, RoundTripEdgeDisjoint) {
  const auto plan =
      AllreducePlanner(4).solution(Solution::kEdgeDisjoint).build();
  const auto back = parse_plan(serialize_plan(plan, 0)).plan;
  EXPECT_EQ(back.solution(), Solution::kEdgeDisjoint);
  EXPECT_EQ(back.topology().edges(), plan.topology().edges());
  const auto polarity = AllreducePlanner(4).build();
  EXPECT_NE(back.topology().edges(), polarity.topology().edges());
  ASSERT_EQ(back.num_trees(), 2);
  for (const auto& tree : back.trees()) {
    EXPECT_TRUE(tree.is_spanning_tree_of(back.topology()));
  }
  EXPECT_FALSE(back.trees()[0].is_spanning_tree_of(polarity.topology()));
}

TEST(SerializeTest, FormatIsStable) {
  const std::string text = serialize_plan(AllreducePlanner(3).build(), 0);
  EXPECT_EQ(text.rfind(std::string("pfar-plan 1\nbuilder ") + kBuilderVersion +
                           "\nq 3\nsolution 0\nstarter 0\nn 13\nedges 24\n",
                       0),
            0u);
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

// `body` followed by its checksum line.
std::string with_checksum(const std::string& body) {
  std::ostringstream text;
  text << body << "checksum " << std::hex << fnv1a64(body) << "\n";
  return text.str();
}

// The message parse_plan throws on `body` stamped with its checksum
// ("accepted" if none): checks past the checksum line.
std::string parse_checksummed(const std::string& body) {
  try {
    static_cast<void>(parse_plan(with_checksum(body)));
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "accepted";
}

// The body of a one-tree plan on the path 0-1-...-(n-1) whose tree line
// is `tree`, with `header` in place of the magic and version line.
std::string path_plan(int n, const std::string& tree,
                      const std::string& header = "pfar-plan 1") {
  std::ostringstream body;
  body << header << "\nbuilder " << kBuilderVersion
       << "\nq 2\nsolution 0\nstarter 0\nn " << n << "\nedges " << n - 1
       << "\n";
  for (int v = 0; v + 1 < n; ++v) body << "e " << v << ' ' << v + 1 << "\n";
  body << "trees 1\n" << tree << "\nbw 0x1p+0 0x1p+0\n";
  return body.str();
}

TEST(SerializeTest, ParserRejectsMalformedInput) {
  EXPECT_EQ(parse_checksummed(path_plan(3, "tree 0 -1 0 1")), "accepted");
  EXPECT_EQ(parse_checksummed(path_plan(3, "tree 0 -1 0 1", "wrong-magic 1")),
            "parse_plan: missing magic");
  EXPECT_EQ(parse_checksummed(path_plan(3, "tree 0 -1 0 1", "pfar-plan 2")),
            "parse_plan: unsupported version");
  EXPECT_EQ(parse_checksummed("pfar-plan 1\nbuilder " +
                              std::string(kBuilderVersion) + "\nq 1\n"),
            "parse_plan: bad q line");
  EXPECT_EQ(parse_checksummed(path_plan(3, "tree 0 -1 0 1") + "extra\n"),
            "parse_plan: trailing content");
  EXPECT_EQ(parse_checksummed(path_plan(3, "tree 0 -1 0")),
            "parse_plan: short parent list");
  EXPECT_EQ(parse_checksummed(path_plan(3, "tree 0 -1 0 9")),
            "parse_plan: parent out of range");
}

TEST(SerializeTest, ParserRejectsCyclicTree) {
  // A parent vector with a 2-cycle (1 <-> 2) is named as no tree first,
  // even when it also uses a non-link ({0, 3}).
  EXPECT_EQ(parse_checksummed(path_plan(4, "tree 0 -1 2 1 0")),
            "parse_plan: invalid tree: SpanningTree: parent vector has a "
            "cycle");
}

TEST(SerializeTest, PlanRejectsTreeEdgeOutsideTopology) {
  // Tree 1 -> 2 -> 0 is a rooted tree, but {0, 2} is no link of the path.
  EXPECT_EQ(parse_checksummed(path_plan(3, "tree 0 -1 2 0")),
            "parse_plan: tree edge not in topology");
}

// Runs `pfar_tool ARGS` and returns its exit status (-1 if it did not exit).
int run_tool(const std::string& args) {
  const std::string cmd = std::string(PFAR_TOOL) + " " + args + " >/dev/null";
  const int status = std::system(cmd.c_str());
  return status != -1 && WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

// Regression: `pfar_tool verify` checked every tree against the polarity
// ER_q, so it rejected every edge-disjoint plan `pfar_tool plan` wrote.
TEST(PfarToolTest, VerifyAcceptsEveryPlanItWrites) {
  const std::string file = ::testing::TempDir() + "pfar_tool_test_" +
                           std::to_string(::getpid()) + ".pfar";
  for (const char* solution : {"lowdepth", "disjoint", "single"}) {
    for (const int q : {7, 8}) {
      const std::string what =
          std::string(solution) + " q=" + std::to_string(q);
      ASSERT_EQ(run_tool("plan --q " + std::to_string(q) + " --solution " +
                         solution + " --out " + file),
                0)
          << what;
      EXPECT_EQ(run_tool("verify --in " + file), 0) << what;
    }
  }
  std::remove(file.c_str());
}

// A checksummed plan whose edge list is not the topology its solution line
// names (a disjoint plan relabeled as low-depth) fails verification.
TEST(PfarToolTest, VerifyRejectsAnotherSolutionsEdgeList) {
  const std::string text = serialize_plan(
      AllreducePlanner(7).solution(Solution::kEdgeDisjoint).build(), 0);
  std::string body = text.substr(0, text.rfind("checksum "));
  body.replace(body.find("solution 1\n"), 11, "solution 0\n");
  const std::string file = ::testing::TempDir() + "pfar_tool_test_" +
                           std::to_string(::getpid()) + "_relabeled.pfar";
  std::ofstream(file) << with_checksum(body);
  EXPECT_EQ(run_tool("verify --in " + file + " 2>/dev/null"), 1);
  std::remove(file.c_str());
}

}  // namespace
}  // namespace pfar::core
