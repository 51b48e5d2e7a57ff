// End-to-end planning cost of the library, per design point: finite
// field, PolarFly/Singer graph construction, both tree solutions and the
// Algorithm 1 congestion model. Construction happens once per job, not
// per Allreduce — but a design sweep builds hundreds of points, so the
// planning fast path (CSR graph + parallel builders + core::PlanCache)
// is benchmarked against the preserved reference implementations.
//
// Three pipelines per q (min over --reps repetitions):
//   seed: fresh gf::Field + reference tree builders + reference
//         congestion solve — the pre-fast-path planning cost.
//   cold: AllreducePlanner through an empty PlanCache (fast builders,
//         memoized field, incidence-based congestion solve).
//   warm: the same PlanCache lookups again — a pure memoization hit.
//
// Each pipeline plans BOTH paper solutions (low-depth Algorithm 3 and
// edge-disjoint Hamiltonian) end to end. Results land in
// BENCH_construction.json (per-phase wall times, cache hit/miss counts,
// speedup_cold and speedup_warm) so the planning-cost trajectory is
// tracked release over release.
//
//   --reps N      repetitions, min taken (default 3)
//   --max-q Q     truncate the q grid (default 101)
//   --threads N   construction workers (PFAR_THREADS; default hardware)
//   --json PATH   output path (default BENCH_construction.json)

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "bench_json.hpp"
#include "core/plan_cache.hpp"
#include "core/planner.hpp"
#include "gf/field.hpp"
#include "oracle/reference_planning.hpp"
#include "polarfly/layout.hpp"
#include "singer/disjoint.hpp"
#include "singer/singer_graph.hpp"
#include "trees/hamiltonian.hpp"
#include "util/args.hpp"
#include "util/table.hpp"

namespace {

using namespace pfar;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

// Wall time of one call, in ms.
template <typename Fn>
double timed(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return ms_since(start);
}

struct Phases {
  // Seed pipeline (reference builders, fresh field).
  double field = 0.0;        // fresh gf::Field(q), as the seed built per use
  double polarfly = 0.0;     // ER_q construction (shared by both pipelines)
  double layout = 0.0;       // cluster layout
  double lowdepth_ref = 0.0; // Algorithm 3, reference
  double bw_ref = 0.0;       // Algorithm 1 on low-depth trees, reference
  double diffset = 0.0;      // Singer difference set
  double singer = 0.0;       // Singer graph
  double hamtrees_ref = 0.0; // matching + paths + trees (shared impl)
  double bw2_ref = 0.0;      // Algorithm 1 on Hamiltonian trees, reference
  // Fast pipeline.
  double cold = 0.0;         // both solutions via PlanCache, all misses
  double warm = 0.0;         // both solutions via PlanCache, all hits

  double seed_total() const {
    return field + polarfly + layout + lowdepth_ref + bw_ref + diffset +
           singer + hamtrees_ref + bw2_ref;
  }
};

Phases min_phases(const Phases& a, const Phases& b) {
  Phases m;
  m.field = std::min(a.field, b.field);
  m.polarfly = std::min(a.polarfly, b.polarfly);
  m.layout = std::min(a.layout, b.layout);
  m.lowdepth_ref = std::min(a.lowdepth_ref, b.lowdepth_ref);
  m.bw_ref = std::min(a.bw_ref, b.bw_ref);
  m.diffset = std::min(a.diffset, b.diffset);
  m.singer = std::min(a.singer, b.singer);
  m.hamtrees_ref = std::min(a.hamtrees_ref, b.hamtrees_ref);
  m.bw2_ref = std::min(a.bw2_ref, b.bw2_ref);
  m.cold = std::min(a.cold, b.cold);
  m.warm = std::min(a.warm, b.warm);
  return m;
}

Phases run_point(int q, int threads) {
  Phases p;

  // --- Seed pipeline: reference builders, per-use field construction. ---
  p.field = timed([&] {
    gf::Field f(q);
    volatile auto sink = f.generator();
    (void)sink;
  });
  const polarfly::PolarFly* pf_ptr = nullptr;
  static std::vector<polarfly::PolarFly> keep_alive;  // stable addresses
  p.polarfly = timed([&] {
    keep_alive.emplace_back(q);
    pf_ptr = &keep_alive.back();
  });
  const polarfly::PolarFly& pf = *pf_ptr;
  polarfly::Layout layout;
  p.layout = timed([&] { layout = polarfly::build_layout(pf); });
  std::vector<trees::SpanningTree> lowdepth;
  p.lowdepth_ref = timed(
      [&] { lowdepth = oracle::build_low_depth_trees_reference(pf, layout); });
  p.bw_ref = timed([&] {
    auto bw = oracle::compute_tree_bandwidths_reference(pf.graph(), lowdepth, 1.0);
    volatile double sink = bw.aggregate;
    (void)sink;
  });
  singer::DifferenceSet d;
  p.diffset = timed([&] { d = singer::build_difference_set(q); });
  const singer::SingerGraph* sg_ptr = nullptr;
  static std::vector<singer::SingerGraph> keep_alive_sg;
  p.singer = timed([&] {
    keep_alive_sg.emplace_back(d);
    sg_ptr = &keep_alive_sg.back();
  });
  std::vector<trees::SpanningTree> hams;
  p.hamtrees_ref = timed([&] {
    const auto set = singer::find_disjoint_hamiltonians(d, 1);
    hams = trees::hamiltonian_trees(set, 1);
  });
  p.bw2_ref = timed([&] {
    auto bw =
        oracle::compute_tree_bandwidths_reference(sg_ptr->graph(), hams, 1.0);
    volatile double sink = bw.aggregate;
    (void)sink;
  });

  // --- Fast pipeline: PlanCache cold (miss) then warm (hit). ---
  core::PlanCache cache;
  const core::PlanKey low{q, core::Solution::kLowDepth, 0};
  const core::PlanKey ham{q, core::Solution::kEdgeDisjoint, 0};
  p.cold = timed([&] {
    cache.get_or_build(low, threads);
    cache.get_or_build(ham, threads);
  });
  p.warm = timed([&] {
    cache.get_or_build(low, threads);
    cache.get_or_build(ham, threads);
  });
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  const util::Args args(argc, argv);
  const int reps = static_cast<int>(args.get_int("reps", 3));
  const int max_q = static_cast<int>(args.get_int("max-q", 101));
  const int threads = args.threads();

  std::printf("Construction cost per design point (both solutions, ms, "
              "min of %d reps)\n\n", reps);

  std::vector<int> grid;
  for (int q : {7, 13, 27, 49, 53, 81, 101}) {
    if (q <= max_q) grid.push_back(q);
  }

  // Warm the process-wide field cache deliberately OUTSIDE the timers for
  // the fast pipeline and INSIDE for the seed pipeline: the seed built a
  // field per construction, the fast path builds one per process.
  std::vector<Phases> results;
  core::PlanCache::Stats cache_stats;
  for (int q : grid) {
    Phases best = run_point(q, threads);
    for (int r = 1; r < reps; ++r) best = min_phases(best, run_point(q, threads));
    results.push_back(best);
  }
  {
    // Aggregate hit/miss behavior of one representative sweep: every grid
    // point twice through a fresh cache (first pass misses, second hits).
    core::PlanCache cache;
    for (int pass = 0; pass < 2; ++pass) {
      for (int q : grid) {
        cache.get_or_build({q, core::Solution::kLowDepth, 0}, threads);
        cache.get_or_build({q, core::Solution::kEdgeDisjoint, 0}, threads);
      }
    }
    cache_stats = cache.stats();
  }

  // A design sweep evaluates each (q, solution) point at many vector
  // sizes / configs, planning each time (the repo's sweep benches do
  // exactly this). With the cache only the first plan is built; the seed
  // path rebuilds all K times.
  constexpr int kSweepPlans = 10;
  const auto sweep_speedup = [](const Phases& p) {
    return kSweepPlans * p.seed_total() /
           (p.cold + (kSweepPlans - 1) * p.warm);
  };

  util::Table table({"q", "seed", "cold", "warm", "speedup_cold",
                     "speedup_warm", "speedup_sweep10"});
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const Phases& p = results[i];
    table.add(grid[i], p.seed_total(), p.cold, p.warm,
              p.seed_total() / p.cold, p.seed_total() / p.warm,
              sweep_speedup(p));
  }
  table.print(std::cout);
  std::printf(
      "\nseed = fresh field + reference builders + reference congestion\n"
      "solve; cold = PlanCache miss (CSR graph, memoized field, parallel\n"
      "builders, incidence congestion solve); warm = PlanCache hit.\n"
      "speedup_sweep10 = end-to-end planning speedup of a sweep that\n"
      "plans each design point %d times (plan once, reuse thereafter).\n",
      kSweepPlans);

  const std::string json_path =
      args.get_string("json", "BENCH_construction.json");
  if (FILE* json = std::fopen(json_path.c_str(), "w")) {
    std::fprintf(json, "{\n");
    bench::write_meta(json, 1);
    std::fprintf(json, "  \"threads\": %d,\n  \"reps\": %d,\n", threads,
                 reps);
    std::fprintf(json,
                 "  \"cache\": {\"memory_hits\": %llu, \"misses\": %llu},\n",
                 static_cast<unsigned long long>(cache_stats.memory_hits),
                 static_cast<unsigned long long>(cache_stats.misses));
    std::fprintf(json, "  \"points\": [\n");
    for (std::size_t i = 0; i < grid.size(); ++i) {
      const Phases& p = results[i];
      std::fprintf(
          json,
          "    {\"q\": %d, \"phases_ms\": {\"field\": %.3f, "
          "\"polarfly\": %.3f, \"layout\": %.3f, \"lowdepth_ref\": %.3f, "
          "\"bw_ref\": %.3f, \"diffset\": %.3f, \"singer\": %.3f, "
          "\"hamtrees_ref\": %.3f, \"bw2_ref\": %.3f}, "
          "\"seed_ms\": %.3f, \"cold_ms\": %.3f, \"warm_ms\": %.3f, "
          "\"speedup_cold\": %.2f, \"speedup_warm\": %.2f, "
          "\"speedup_sweep10\": %.2f}%s\n",
          grid[i], p.field, p.polarfly, p.layout, p.lowdepth_ref, p.bw_ref,
          p.diffset, p.singer, p.hamtrees_ref, p.bw2_ref, p.seed_total(),
          p.cold, p.warm, p.seed_total() / p.cold, p.seed_total() / p.warm,
          sweep_speedup(p), i + 1 < grid.size() ? "," : "");
    }
    std::fprintf(json, "  ]\n}\n");
    std::fclose(json);
    std::fprintf(stderr, "wrote %s (%zu points)\n", json_path.c_str(),
                 grid.size());
  } else {
    std::fprintf(stderr, "warning: could not open %s for writing\n",
                 json_path.c_str());
  }
  return 0;
}
