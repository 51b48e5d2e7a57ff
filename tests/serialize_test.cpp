// Format and rejection tests for the plan file (core/serialize), and the
// pfar_tool plan -> verify round trip. Round-trip exactness and the
// checksum, truncation and stale-version rejections are in
// plan_cache_test.cpp.
//
// The pfar_tool path is injected by CMake as PFAR_TOOL.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/resource.h>
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

// The body of the low-depth ER_2 plan with its tree lines replaced by the
// one line `tree`, and `header` in place of the magic and version line.
// ER_2's links: {0,4} {0,5} {0,6} {1,3} {1,4} {2,3} {2,6} {3,5} {4,6}; its
// own tree is `tree 4 4 4 6 1 -1 0 4`.
std::string er2_plan(const std::string& tree,
                     const std::string& header = "pfar-plan 1") {
  const std::string text = serialize_plan(AllreducePlanner(2).build(), 0);
  const std::size_t first = text.find('\n') + 1;
  const std::size_t trees = text.find("trees ");
  return header + "\n" + text.substr(first, trees - first) + "trees 1\n" +
         tree + "\nbw 0x1p+0 0x1p+0\n";
}

TEST(SerializeTest, ParserRejectsMalformedInput) {
  const std::string tree = "tree 4 4 4 6 1 -1 0 4";
  EXPECT_EQ(parse_checksummed(er2_plan(tree)), "accepted");
  EXPECT_EQ(parse_checksummed(er2_plan(tree, "wrong-magic 1")),
            "parse_plan: missing magic");
  EXPECT_EQ(parse_checksummed(er2_plan(tree, "pfar-plan 2")),
            "parse_plan: unsupported version");
  EXPECT_EQ(parse_checksummed("pfar-plan 1\nbuilder " +
                              std::string(kBuilderVersion) + "\nq 1\n"),
            "parse_plan: bad q line");
  EXPECT_EQ(parse_checksummed(er2_plan(tree) + "extra\n"),
            "parse_plan: trailing content");
  EXPECT_EQ(parse_checksummed(er2_plan("tree 4 4 4 6 1 -1 0")),
            "parse_plan: short parent list");
  EXPECT_EQ(parse_checksummed(er2_plan("tree 4 4 4 6 1 -1 0 9")),
            "parse_plan: parent out of range");
  // Regression: a q line that disagreed with n used to parse (a 3-vertex
  // path as a `q 2` plan). Both header counts must be ER_q's.
  std::string other_q = er2_plan(tree);
  std::string other_edges = other_q;
  other_q.replace(other_q.find("q 2\n"), 4, "q 3\n");
  other_edges.replace(other_edges.find("edges 9\n"), 8, "edges 8\n");
  EXPECT_EQ(parse_checksummed(other_q),
            "parse_plan: bad n line (n must be q^2+q+1)");
  EXPECT_EQ(parse_checksummed(other_edges),
            "parse_plan: bad edges line (edges must be q(q+1)^2/2)");
}

TEST(SerializeTest, ParserRejectsCyclicTree) {
  // A parent vector with a 2-cycle (1 <-> 2) is named as no tree first,
  // even when it also uses a non-link ({0, 3}).
  EXPECT_EQ(parse_checksummed(er2_plan("tree 4 4 2 1 0 -1 0 4")),
            "parse_plan: invalid tree: SpanningTree: parent vector has a "
            "cycle");
}

TEST(SerializeTest, PlanRejectsTreeEdgeOutsideTopology) {
  // Vertex 5 hangs off the root 4, a rooted tree, but {4, 5} is no link
  // of ER_2.
  EXPECT_EQ(parse_checksummed(er2_plan("tree 4 4 4 6 1 -1 4 4")),
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

// Regression: parse_plan sized the topology from the header's n before it
// read an edge, so a checksummed file of about 120 bytes made
// `pfar_tool verify` peak at 309 MB (n 10000000), 1.1 GB (q 6000 with a
// consistent n) or 828 MB (the same with edges 2000000000). Each crafted
// header now fails with its parse_plan message, and the tool's peak RSS
// stays far below what the header claims.
TEST(PfarToolTest, VerifyRejectsOversizedHeadersCheaply) {
  struct Crafted {
    const char* header;
    const char* message;
  };
  const Crafted cases[] = {
      {"q 3\nsolution 0\nstarter 0\nn 10000000\nedges 1\n",
       "parse_plan: bad n line (n must be q^2+q+1)"},
      {"q 6000\nsolution 0\nstarter 0\nn 36006001\nedges 1\n",
       "parse_plan: bad edges line (edges must be q(q+1)^2/2)"},
      {"q 6000\nsolution 0\nstarter 0\nn 36006001\nedges 2000000000\n",
       "parse_plan: bad edges line (edges must be q(q+1)^2/2)"},
      // Counts consistent with ER_6000 but one edge line: nothing may be
      // reserved from the header's 108036003000 edges.
      {"q 6000\nsolution 0\nstarter 0\nn 36006001\nedges 108036003000\n",
       "parse_plan: bad edge at index 1"},
  };
  const std::string prefix = ::testing::TempDir() + "pfar_tool_test_" +
                             std::to_string(::getpid()) + "_crafted";
  const std::string file = prefix + ".pfar";
  const std::string err = prefix + ".err";
  for (const Crafted& c : cases) {
    std::ofstream(file) << with_checksum(
        std::string("pfar-plan 1\nbuilder ") + kBuilderVersion + "\n" +
        c.header + "e 0 1\ntrees 1\n");
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      const int out = ::open("/dev/null", O_WRONLY);
      const int fd = ::open(err.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
      if (out < 0 || fd < 0 || ::dup2(out, 1) < 0 || ::dup2(fd, 2) < 0) {
        ::_exit(127);
      }
      ::execl(PFAR_TOOL, PFAR_TOOL, "verify", "--in", file.c_str(),
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    int status = 0;
    struct rusage usage {};
    ASSERT_EQ(::wait4(pid, &status, 0, &usage), pid);
    ASSERT_TRUE(WIFEXITED(status)) << c.header;
    EXPECT_EQ(WEXITSTATUS(status), 1) << c.header;
    std::stringstream stderr_text;
    stderr_text << std::ifstream(err).rdbuf();
    EXPECT_EQ(stderr_text.str(), std::string("error: ") + c.message + "\n")
        << c.header;
    EXPECT_LT(usage.ru_maxrss, 64 * 1024) << c.header << "(peak RSS in KiB)";
  }
  std::remove(file.c_str());
  std::remove(err.c_str());
}

}  // namespace
}  // namespace pfar::core
