#include "core/serialize.hpp"

#include <cstdio>
#include <cstdlib>
#include <limits>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.hpp"
#include "trees/spanning_tree.hpp"
#include "util/contracts.hpp"

namespace pfar::core {

const char kBuilderVersion[] = "pfar-builder-2";

// pfar-lint: allow(contract-coverage) total hash over arbitrary bytes; every input is valid
std::uint64_t fnv1a64(const std::string& data) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : data) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Private-member accessor for AllreducePlan (befriended in planner.hpp)
/// so plans can be reconstructed without re-running any builder.
struct PlanIO {
  static std::string write(const AllreducePlan& plan, int starter);
  static ParsedPlan read(const std::string& text);
};

namespace {

[[noreturn]] void fail(const std::string& what) {
  throw std::invalid_argument("parse_plan: " + what);
}

// Reads tree t's `tree ROOT p0 ... p(n-1)` line.
trees::SpanningTree read_tree(std::istream& is, int n, std::size_t t) {
  std::string token;
  int root = 0;
  if (!(is >> token) || token != "tree" || !(is >> root)) {
    fail("bad tree header at tree " + std::to_string(t));
  }
  std::vector<int> parent(static_cast<std::size_t>(n));
  for (int& p : parent) {
    if (!(is >> p)) fail("short parent list");
    if (p < -1 || p >= n) fail("parent out of range");
  }
  try {
    return trees::SpanningTree(root, std::move(parent));
  } catch (const std::exception& e) {
    fail(std::string("invalid tree: ") + e.what());
  }
}

// C99 hex-float formatting: exact binary round-trip, locale-independent,
// single whitespace-free token.
void append_hex_double(std::ostringstream& os, double x) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", x);
  os << buf;
}

double read_hex_double(std::istringstream& is, const char* what) {
  std::string token;
  if (!(is >> token)) fail(std::string("missing double in ") + what);
  char* end = nullptr;
  const double x = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    fail(std::string("bad double in ") + what);
  }
  return x;
}

}  // namespace

std::string PlanIO::write(const AllreducePlan& plan, int starter) {
  // A plan must be fully built before it can be written: topology present,
  // at least one tree, and one bandwidth entry per tree.
  PFAR_REQUIRE(plan.topology_ != nullptr, plan.q_);
  PFAR_REQUIRE(!plan.trees_.empty(), plan.q_);
  PFAR_REQUIRE(plan.bandwidths_.per_tree.size() == plan.trees_.size(),
               plan.q_, plan.bandwidths_.per_tree.size(), plan.trees_.size());
  PFAR_REQUIRE(starter >= 0, starter);
  const graph::Graph& g = *plan.topology_;
  const int n = g.num_vertices();
  std::ostringstream os;
  os << "pfar-plan 1\n";
  os << "builder " << kBuilderVersion << "\n";
  os << "q " << plan.q_ << "\n";
  os << "solution " << static_cast<int>(plan.solution_) << "\n";
  os << "starter " << starter << "\n";
  os << "n " << n << "\n";
  os << "edges " << g.num_edges() << "\n";
  for (const auto& e : g.edges()) os << "e " << e.u << ' ' << e.v << "\n";
  os << "trees " << plan.trees_.size() << "\n";
  for (const auto& t : plan.trees_) {
    os << "tree " << t.root();
    for (int v = 0; v < n; ++v) os << ' ' << t.parent(v);
    os << "\n";
  }
  os << "bw ";
  append_hex_double(os, plan.bandwidths_.aggregate);
  for (double b : plan.bandwidths_.per_tree) {
    os << ' ';
    append_hex_double(os, b);
  }
  os << "\n";
  std::string body = os.str();
  std::ostringstream cs;
  cs << "checksum " << std::hex << fnv1a64(body) << "\n";
  return body + cs.str();
}

// pfar-lint: allow(contract-coverage) parser: rejecting malformed text via std::invalid_argument IS the contract (any byte string is a legal input)
ParsedPlan PlanIO::read(const std::string& text) {
  // Split off and verify the trailing checksum line first: any corruption
  // of the body (including truncation) is caught before field parsing.
  const auto pos = text.rfind("checksum ");
  if (pos == std::string::npos || (pos != 0 && text[pos - 1] != '\n')) {
    fail("missing checksum line");
  }
  const std::string body = text.substr(0, pos);
  {
    const std::string tail = text.substr(pos);
    std::istringstream cs(tail);
    std::string token, hex;
    if (!(cs >> token >> hex)) fail("bad checksum line");
    std::uint64_t stored = 0;
    try {
      std::size_t used = 0;
      stored = std::stoull(hex, &used, 16);
      if (used != hex.size()) fail("bad checksum value");
    } catch (const std::invalid_argument&) {
      fail("bad checksum value");
    } catch (const std::out_of_range&) {
      fail("bad checksum value");
    }
    // Strict framing: the checksum line is the byte-exact final line of
    // the artifact. Anything after its newline -- including bytes that are
    // only whitespace -- means the file was appended to or damaged, and a
    // reader that shrugs it off would silently accept a tampered plan.
    if (tail != "checksum " + hex + "\n") {
      fail("trailing content after checksum");
    }
    if (stored != fnv1a64(body)) fail("checksum mismatch");
  }

  std::istringstream is(body);
  std::string token;
  if (!(is >> token) || token != "pfar-plan") fail("missing magic");
  int version = 0;
  if (!(is >> version) || version != 1) fail("unsupported version");
  if (!(is >> token) || token != "builder" || !(is >> token)) {
    fail("bad builder line");
  }
  if (token != kBuilderVersion) {
    fail("builder version mismatch (plan built by '" + token +
         "', this binary is '" + kBuilderVersion + "')");
  }

  ParsedPlan out;
  AllreducePlan& plan = out.plan;
  int solution = -1;
  long long n = 0;
  long long num_edges = 0;
  std::size_t num_trees = 0;
  if (!(is >> token) || token != "q" || !(is >> plan.q_) || plan.q_ < 2) {
    fail("bad q line");
  }
  if (!(is >> token) || token != "solution" || !(is >> solution) ||
      solution < 0 || solution > 2) {
    fail("bad solution line");
  }
  plan.solution_ = static_cast<Solution>(solution);
  if (!(is >> token) || token != "starter" || !(is >> out.starter) ||
      out.starter < 0) {
    fail("bad starter line");
  }
  // The header counts must be ER_q's, and the graph is built only after
  // the edge lines are read into a vector that grows with the file, so no
  // header makes the reader allocate more than the file holds. q < 2^31
  // keeps q^2+q+1 in 64 bits; n fitting an int keeps q below 46341, so
  // q(q+1)^2/2 fits too.
  const long long q = plan.q_;
  if (!(is >> token) || token != "n" || !(is >> n) || n != q * q + q + 1 ||
      n > std::numeric_limits<int>::max()) {
    fail("bad n line (n must be q^2+q+1)");
  }
  if (!(is >> token) || token != "edges" || !(is >> num_edges) ||
      num_edges != q * (q + 1) * (q + 1) / 2) {
    fail("bad edges line (edges must be q(q+1)^2/2)");
  }
  std::vector<graph::Edge> edges;
  for (long long i = 0; i < num_edges; ++i) {
    int u = 0, v = 0;
    if (!(is >> token) || token != "e" || !(is >> u >> v)) {
      fail("bad edge at index " + std::to_string(i));
    }
    if (u < 0 || u >= n || v < 0 || v >= n || u == v) {
      fail("edge endpoint out of range");
    }
    edges.emplace_back(u, v);
  }
  auto g = std::make_shared<graph::Graph>(static_cast<int>(n));
  for (const auto& e : edges) g->add_edge(e.u, e.v);
  try {
    g->finalize();
  } catch (const std::exception& e) {
    fail(std::string("invalid topology: ") + e.what());
  }
  if (!(is >> token) || token != "trees" || !(is >> num_trees) ||
      num_trees == 0) {
    fail("bad trees line");
  }
  for (std::size_t t = 0; t < num_trees; ++t) {
    plan.trees_.push_back(read_tree(is, static_cast<int>(n), t));
  }
  try {
    static_cast<void>(trees::tree_links(*g, plan.trees_));
  } catch (const std::invalid_argument&) {
    fail("tree edge not in topology");
  }
  if (!(is >> token) || token != "bw") fail("bad bw line");
  plan.bandwidths_.aggregate = read_hex_double(is, "bw aggregate");
  plan.bandwidths_.per_tree.reserve(num_trees);
  for (std::size_t t = 0; t < num_trees; ++t) {
    plan.bandwidths_.per_tree.push_back(read_hex_double(is, "bw entry"));
  }
  if (is >> token) fail("trailing content");

  plan.topology_ = g;
  plan.owner_ = g;
  return out;
}

std::string serialize_plan(const AllreducePlan& plan, int starter) {
  return PlanIO::write(plan, starter);
}

ParsedPlan parse_plan(const std::string& text) { return PlanIO::read(text); }

}  // namespace pfar::core
