// End-to-end benchmark of the PolarFly in-network Allreduce stack.
//
//   pfar_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--out-dir DIR] [--git-sha SHA] [--src-digest HEX]
//
// Four single-threaded workloads drive the public APIs of core, simnet,
// collectives, service and workload (README.md in this directory gives
// the reason for each). Every run checks every reduction; the last line
// of stdout is the result object. Untraced runs (--trace 0) report the
// end-to-end metrics; traced runs (--trace 1) time the calls into each
// layer from this file, replay the inner calls a layer makes to split its
// time, and report the per-layer metrics. Human-readable tables go to
// stderr; spans and run details go to DIR/<workload>-seed<N>-trace<T>.json.

#include <malloc.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "collectives/bucket_schedule.hpp"
#include "collectives/innetwork.hpp"
#include "collectives/resilient.hpp"
#include "core/planner.hpp"
#include "core/resilience.hpp"
#include "harness.hpp"
#include "model/congestion_model.hpp"
#include "obsv/recorder.hpp"
#include "polarfly/erq.hpp"
#include "polarfly/layout.hpp"
#include "service/service.hpp"
#include "simnet/allreduce_sim.hpp"
#include "singer/disjoint.hpp"
#include "singer/singer_graph.hpp"
#include "trees/hamiltonian.hpp"
#include "trees/low_depth.hpp"
#include "util/args.hpp"
#include "util/rng.hpp"
#include "workload/replay.hpp"
#include "workload/trace.hpp"

namespace {

using namespace pfar;
using perfbench::Calibrator;
using perfbench::Metric;
using perfbench::SpanLog;

constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kQ = 11;

std::uint64_t derive(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + tag * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

simnet::SimConfig single_thread_config() {
  simnet::SimConfig config;
  config.shard_threads = 1;
  return config;
}

core::AllreducePlan build_plan(int q, core::Solution solution,
                               obsv::Recorder* observer = nullptr) {
  return core::AllreducePlanner(q).solution(solution).threads(1)
      .observer(observer).build();
}

long long sum(const std::vector<long long>& v) {
  long long total = 0;
  for (long long x : v) total += x;
  return total;
}

/// Deterministic outputs of one measured unit. Every repetition of a unit
/// in a run must reproduce them exactly.
struct SimSummary {
  double sim_cycles = 0;
  double bw_vs_optimal = 0;
  double jobs_per_kcycle = 0;
  double job_p50_cycles = 0;
  double job_p99_cycles = 0;
  double epoch_cycles = 0;
  double overlap_efficiency = 0;
  bool operator==(const SimSummary&) const = default;
};

/// Host-time split of one workload pass, in calibrated ms per layer.
struct LedgerRow {
  std::string layer;
  std::string what;
  double self_ms = 0;
};

struct Run {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  double deadline = 0;  // wall clock at which measurement stops

  Calibrator cal;
  SpanLog log{false};

  long long attempted = 0;
  long long failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::vector<LedgerRow> ledger;
  std::map<std::string, std::string> notes;

  void fail(const std::string& why) {
    ++failed;
    problems.push_back(why);
  }
  void check(bool ok, const std::string& why) {
    ++attempted;
    if (!ok) fail(why);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

/// Repeats `round` until `deadline` (always at least once). A round is
/// started only when the median duration of the rounds so far still fits.
void measure_rounds(Run& run, double deadline,
                    const std::function<void()>& round) {
  std::vector<double> durations;
  for (;;) {
    const double t0 = perfbench::wall_now();
    round();
    const double t1 = perfbench::wall_now();
    durations.push_back(t1 - t0);
    if (t1 + perfbench::median(durations) > deadline) break;
  }
  run.notes["rounds"] += std::to_string(durations.size()) + " ";
}

/// Calibrates a span measured inside a unit by that unit's kernel, with
/// the unit's share of kernel samples taken out.
double cal_of(double raw_s, const Calibrator::Sample& bracket) {
  return raw_s * bracket.useful_share * bracket.factor;
}

/// Set-up cost of work that takes well under a millisecond: groups of
/// fresh builds, each group a calibrated unit whose median build counts. Half the groups run before the measured units and half
/// after them (finish()), so the median spans the host's slow and fast
/// phases of the run.
class SetupTimer {
 public:
  SetupTimer(Run& run, std::function<void()> build_once)
      : run_(run), build_once_(std::move(build_once)) {
    add_groups();
  }
  double finish() {
    add_groups();
    return perfbench::median(groups_);
  }

 private:
  /// Four groups, each of fresh builds until 100 ms of CPU time, so the
  /// kernel is sampled several times during every group.
  void add_groups() {
    constexpr int kGroups = 4;
    constexpr double kGroupCpuS = 0.1;
    for (int g = 0; g < kGroups; ++g) {
      std::vector<double> raw;
      const auto sample = run_.cal.unit([&] {
        const double start = perfbench::cpu_now();
        while (raw.size() < 20 || perfbench::cpu_now() - start < kGroupCpuS) {
          const double t0 = perfbench::cpu_now();
          build_once_();
          raw.push_back(perfbench::cpu_now() - t0);
        }
      });
      groups_.push_back(cal_of(perfbench::median(raw), sample));
    }
  }

  Run& run_;
  std::function<void()> build_once_;
  std::vector<double> groups_;
};

/// Samples of one unit kind. Untraced units give host_s; traced units
/// (traced runs only) give the traced host time, the part of it spent
/// inside layer calls, and that part split by layer call.
struct UnitSeries {
  std::vector<double> cal;      // calibrated s, untraced units
  std::vector<double> raw;      // raw CPU s, untraced units
  std::vector<double> traced;   // calibrated s, traced units
  std::vector<double> covered;  // calibrated s inside layer spans
  std::map<std::string, std::vector<double>> by_call;  // calibrated s

  double layer_ms(const std::string& call) const {
    const auto it = by_call.find(call);
    return it == by_call.end() ? 0.0 : perfbench::median(it->second) * 1e3;
  }
};

/// Runs one unit of a kind: untraced; in traced runs it then runs again
/// inside a "bench.unit" span whose direct children are the layer calls.
template <class F>
void run_unit(Run& run, UnitSeries& series, F&& fn) {
  run.log.set_enabled(false);
  const auto plain = run.cal.unit(fn);
  series.cal.push_back(plain.calibrated_s);
  series.raw.push_back(plain.raw_s);
  run.log.set_enabled(run.trace);
  if (!run.trace) return;
  const std::size_t mark = run.log.spans().size();
  const auto traced = run.cal.unit([&] { run.log.span("bench.unit", fn); });
  series.traced.push_back(traced.calibrated_s);
  std::map<std::string, double> per_call;
  double covered = 0;
  const auto& spans = run.log.spans();
  for (std::size_t i = mark + 1; i < spans.size(); ++i) {
    if (spans[i].parent != static_cast<int>(mark)) continue;
    const double s = cal_of(spans[i].end - spans[i].start, traced);
    per_call[spans[i].name] += s;
    covered += s;
  }
  for (const auto& [call, s] : per_call) series.by_call[call].push_back(s);
  series.covered.push_back(covered);
}

/// Planner phases timed around their public calls (topology, trees,
/// Algorithm 1), median over `reps` cold builds, calibrated ms each.
struct PlannerPhases {
  double topology_ms = 0;
  double trees_ms = 0;
  double alg1_ms = 0;
};

PlannerPhases time_planner_phases(Run& run, int q, core::Solution solution,
                                  int reps) {
  std::vector<double> topo, tree, alg1;
  for (int r = 0; r < reps; ++r) {
    double t_topo = 0, t_trees = 0, t_alg1 = 0;
    const auto bracket = run.cal.unit([&] {
      std::vector<trees::SpanningTree> built;
      const graph::Graph* g = nullptr;
      std::shared_ptr<polarfly::PolarFly> pf;
      std::shared_ptr<singer::SingerGraph> sg;
      if (solution == core::Solution::kLowDepth) {
        run.log.span("planner.topology", [&] {
          pf = std::make_shared<polarfly::PolarFly>(q);
        }, &t_topo);
        run.log.span("planner.trees", [&] {
          built = q % 2 == 1
                      ? trees::build_low_depth_trees(
                            *pf, polarfly::build_layout(*pf, 0), 1)
                      : trees::build_low_depth_trees_even(*pf, 0, 1);
        }, &t_trees);
        g = &pf->graph();
      } else {
        run.log.span("planner.topology", [&] {
          sg = std::make_shared<singer::SingerGraph>(q);
        }, &t_topo);
        run.log.span("planner.trees", [&] {
          built = trees::hamiltonian_trees(
              singer::find_disjoint_hamiltonians(sg->difference_set(), 1), 1);
        }, &t_trees);
        g = &sg->graph();
      }
      run.log.span("planner.alg1", [&] {
        return model::compute_tree_bandwidths(*g, built, 1.0);
      }, &t_alg1);
    });
    topo.push_back(cal_of(t_topo, bracket) * 1e3);
    tree.push_back(cal_of(t_trees, bracket) * 1e3);
    alg1.push_back(cal_of(t_alg1, bracket) * 1e3);
  }
  return {perfbench::median(topo), perfbench::median(tree),
          perfbench::median(alg1)};
}

/// Sum of a planner observer histogram (obsv::Metrics exposes only the
/// count directly, so read the sum from its JSONL snapshot).
double observer_sum_ms(const obsv::Metrics& metrics, const std::string& name) {
  std::ostringstream os;
  metrics.write_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  const std::string key = "\"name\":\"" + name + "\"";
  while (std::getline(is, line)) {
    if (line.find(key) == std::string::npos) continue;
    const auto at = line.find("\"sum\":");
    if (at != std::string::npos) return std::atof(line.c_str() + at + 6);
  }
  return 0;
}

/// Planner per-layer metrics for the given plans, plus a cross-check of
/// the benchmark-side phase times against the planner's own observer
/// timers (planner.*_ms histograms; recorded in PFAR_TRACE=on builds).
void planner_layer_metrics(
    Run& run, const std::vector<std::pair<int, core::Solution>>& plans,
    int reps) {
  PlannerPhases total;
  obsv::Recorder observer;
  for (const auto& [q, solution] : plans) {
    const PlannerPhases p = time_planner_phases(run, q, solution, reps);
    total.topology_ms += p.topology_ms;
    total.trees_ms += p.trees_ms;
    total.alg1_ms += p.alg1_ms;
  }
  double raw_observer_s = 0;
  run.cal.unit([&] {
    const double t0 = perfbench::cpu_now();
    for (const auto& [q, solution] : plans) build_plan(q, solution, &observer);
    raw_observer_s = perfbench::cpu_now() - t0;
  });
  double observer_ms = 0;
  for (const char* name :
       {"planner.topology_ms", "planner.trees_ms", "planner.bandwidths_ms"}) {
    observer_ms += observer_sum_ms(observer.metrics, name);
  }
  // Observer timers are wall ms of one build each; compare against the raw
  // CPU time of the same builds.
  run.metric("planner.topology_ms", total.topology_ms, "ms");
  run.metric("planner.trees_ms", total.trees_ms, "ms");
  run.metric("planner.alg1_ms", total.alg1_ms, "ms");
  run.metric("planner.observer_ratio",
             raw_observer_s > 0 ? observer_ms / (raw_observer_s * 1e3) : 0,
             "ratio");
  run.ledger.push_back({"planner", "set-up, not in host_s",
                        total.topology_ms + total.trees_ms + total.alg1_ms});
}

// ---------------------------------------------------------------------------
// Workload results shared by every workload's reporting.

struct Outcome {
  SimSummary sim;
  double setup_s = 0;
  double host_s = 0;          // sum over unit kinds of median calibrated s
  double host_raw_s = 0;      // same, raw CPU seconds
  double traced_host_s = 0;   // traced units, same sum (traced runs only)
  double span_covered_s = 0;  // traced: the part inside layer calls

  void add(const UnitSeries& s) {
    host_s += perfbench::median(s.cal);
    host_raw_s += perfbench::median(s.raw);
    traced_host_s += perfbench::median(s.traced);
    span_covered_s += perfbench::median(s.covered);
  }
};

void check_repeat(Run& run, std::vector<SimSummary>& seen,
                  const SimSummary& now, const std::string& what) {
  if (!seen.empty() && !(seen.front() == now)) {
    run.fail("simulated metrics of " + what + " differ between repetitions");
  }
  seen.push_back(now);
}

/// One Allreduce per plan, as measured by measure_plan (the full SimResult
/// is not kept: its per-link vectors are tens of MiB at q=128).
struct PlanRun {
  long long cycles = 0;
  double aggregate_bandwidth = 0;
  long long flit_hops = 0;
  double optimal_bw = 0;
  double sim_ms = 0;   // traced: the replayed simulator call
  double call_ms = 0;  // traced: run_innetwork_allreduce
};

/// Summary of the closed-loop workloads that issue one Allreduce per plan.
SimSummary per_plan_summary(const std::vector<PlanRun>& runs) {
  std::vector<long long> cycles;
  double bw_sum = 0;
  for (const auto& r : runs) {
    cycles.push_back(r.cycles);
    bw_sum += r.aggregate_bandwidth / r.optimal_bw;
  }
  const double total = static_cast<double>(sum(cycles));
  SimSummary s;
  s.sim_cycles = total;
  s.epoch_cycles = total;  // closed loop: runs follow each other
  s.bw_vs_optimal = bw_sum / static_cast<double>(runs.size());
  s.jobs_per_kcycle = 1000.0 * static_cast<double>(runs.size()) / total;
  s.job_p50_cycles = static_cast<double>(perfbench::percentile(cycles, 50));
  s.job_p99_cycles = static_cast<double>(perfbench::percentile(cycles, 99));
  s.overlap_efficiency = 1.0;  // no compute phase to overlap with
  return s;
}

/// The closed loop of bulk_allreduce and plan_scale for one plan:
/// run_innetwork_allreduce until `deadline`, each repetition checked
/// against the first. In traced runs the simulator call it makes is
/// replayed with the same split outside the unit, which splits the unit's
/// time into simnet and collectives.
PlanRun measure_plan(Run& run, Outcome& out, const core::AllreducePlan& plan,
                     long long m, const simnet::SimConfig& config,
                     const char* sim_span, double deadline) {
  UnitSeries series;
  std::vector<double> replay_ms;
  std::vector<SimSummary> seen;
  PlanRun result;
  result.optimal_bw = plan.optimal_bandwidth();
  const std::string what = run.workload + " on q=" + std::to_string(plan.q()) +
                           " " + core::to_string(plan.solution());
  measure_rounds(run, deadline, [&] {
    run_unit(run, series, [&] {
      const auto sim = run.log.span("collectives.run_innetwork_allreduce", [&] {
        return collectives::run_innetwork_allreduce(plan.topology(),
                                                    plan.trees(), m, config);
      }).sim;
      run.check(sim.values_correct && sim.total_elements == m && sim.cycles > 0,
                what + ": wrong or incomplete reduction");
      result.cycles = sim.cycles;
      result.aggregate_bandwidth = sim.aggregate_bandwidth;
      result.flit_hops = sum(sim.link_flits);
    });
    check_repeat(run, seen, per_plan_summary({result}), what);
    if (!run.trace) return;
    const auto embeddings = collectives::to_embeddings(plan.trees());
    const auto split = plan.split(m);
    double t = 0;
    simnet::SimResult direct;
    const auto bracket = run.cal.unit([&] {
      run.log.span(sim_span, [&] {
        simnet::AllreduceSimulator simulator(plan.topology(), embeddings,
                                             config);
        direct = simulator.run(split);
      }, &t);
    });
    replay_ms.push_back(cal_of(t, bracket) * 1e3);
    if (direct.cycles != result.cycles) {
      run.fail(what + ": attribution replay diverged");
    }
  });
  out.add(series);
  result.sim_ms = perfbench::median(replay_ms);
  result.call_ms = series.layer_ms("collectives.run_innetwork_allreduce");
  return result;
}

// ---------------------------------------------------------------------------
// bulk_allreduce: one large-vector Allreduce per tree set, closed loop.

Outcome run_bulk(Run& run) {
  const long long m =
      64000 + 8 * static_cast<long long>(derive(run.seed, 1) % 32);
  run.notes["m"] = std::to_string(m);
  const std::vector<core::Solution> solutions{core::Solution::kLowDepth,
                                              core::Solution::kEdgeDisjoint};
  Outcome out;
  SetupTimer setup_timer(run, [&] {
    for (auto s : solutions) {
      const auto plan = build_plan(kQ, s);
      simnet::AllreduceSimulator sim(plan.topology(),
                                     collectives::to_embeddings(plan.trees()),
                                     single_thread_config());
    }
  });
  // Each tree set gets an equal share of the measuring time.
  const double start = perfbench::wall_now();
  const double share = (run.deadline - start) / static_cast<double>(solutions.size());
  std::vector<PlanRun> runs;
  for (std::size_t k = 0; k < solutions.size(); ++k) {
    const auto plan = build_plan(kQ, solutions[k]);
    runs.push_back(measure_plan(run, out, plan, m, single_thread_config(),
                                "simnet.run",
                                start + share * static_cast<double>(k + 1)));
  }
  out.sim = per_plan_summary(runs);
  out.setup_s = setup_timer.finish();
  if (run.trace) {
    planner_layer_metrics(run, {{kQ, solutions[0]}, {kQ, solutions[1]}}, 31);
    double sim_ms = 0, call_ms = 0;
    long long flit_hops = 0;
    for (const auto& r : runs) {
      sim_ms += r.sim_ms;
      call_ms += r.call_ms;
      flit_hops += r.flit_hops;
    }
    run.metric("simnet.run_ms", sim_ms, "ms");
    run.metric("simnet.runs", static_cast<double>(runs.size()), "count");
    run.metric("simnet.flit_hops", static_cast<double>(flit_hops), "count");
    run.metric("simnet.ns_per_flit_hop",
               sim_ms * 1e6 / static_cast<double>(flit_hops), "ns");
    run.metric("collectives.overhead_ms", call_ms - sim_ms, "ms");
    run.ledger.push_back({"simnet", "AllreduceSimulator::run (replayed)", sim_ms});
    run.ledger.push_back({"collectives", "run_innetwork_allreduce minus its run",
                          call_ms - sim_ms});
  }
  return out;
}

// ---------------------------------------------------------------------------
// service_stream: seeded open-loop multi-tenant job stream.

constexpr int kServiceJobs = 1000;
constexpr int kServiceTenants = 4;
// Offered rate as a multiple of the serial service rate (one mean-size job
// at a time on the full tree set): past what serial could sustain, inside
// what the batched lanes sustain, so the queue stays bounded.
constexpr int kServiceLoadPermille = 2500;

/// The job mix of bench/service_throughput — 85% m in [64, 512], 13% in
/// [1024, 4096], 2% m = 8192, one job in eight kMax, priorities 0-2, four
/// tenants, uniform inter-arrival gaps of the given mean — drawn by
/// stratified sampling: exact class counts and quantile-spaced sizes and
/// gaps, put in a seeded random order. Every seed then offers the same
/// multiset of jobs and gaps, so the seed moves the order (and with it the
/// batching) but not the amount of work.
std::vector<service::JobSpec> make_stream(long long mean_gap,
                                          std::uint64_t seed) {
  constexpr int n = kServiceJobs;
  util::Rng rng(seed);
  const auto shuffled = [&](std::vector<long long> v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[static_cast<std::size_t>(rng.next_below(i))]);
    }
    return v;
  };
  // `count` values spread evenly over [lo, hi].
  const auto spread = [](int count, long long lo, long long hi) {
    std::vector<long long> v;
    for (int i = 0; i < count; ++i) {
      v.push_back(lo + (hi - lo) * (2 * i + 1) / (2 * count));
    }
    return v;
  };
  std::vector<long long> sizes = spread(n * 85 / 100, 64, 512);
  for (long long s : spread(n * 13 / 100, 1024, 4096)) sizes.push_back(s);
  sizes.resize(n, 8192);
  std::vector<long long> ops(n, 0), tenants(n), priorities(n);
  for (int i = 0; i < n / 8; ++i) ops[static_cast<std::size_t>(i)] = 1;
  for (int i = 0; i < n; ++i) {
    tenants[static_cast<std::size_t>(i)] = i % kServiceTenants;
    priorities[static_cast<std::size_t>(i)] = i % 3;
  }
  sizes = shuffled(sizes);
  ops = shuffled(ops);
  tenants = shuffled(tenants);
  priorities = shuffled(priorities);
  const std::vector<long long> gaps = shuffled(spread(n, 1, 2 * mean_gap - 1));
  std::vector<service::JobSpec> out;
  long long t = 0;
  for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
    t += gaps[i];
    service::JobSpec spec;
    spec.tenant = static_cast<int>(tenants[i]);
    spec.elements = sizes[i];
    spec.op = ops[i] != 0 ? service::ReduceOp::kMax : service::ReduceOp::kSum;
    spec.priority = static_cast<int>(priorities[i]);
    spec.arrival_cycle = t;
    out.push_back(spec);
  }
  return out;
}

Outcome run_service(Run& run) {
  const simnet::SimConfig sim_config = single_thread_config();
  service::ServiceConfig config;
  config.policy = service::SchedulerPolicy::kPartitionedBatched;
  config.sim = sim_config;
  Outcome out;
  SetupTimer setup_timer(run, [&] {
    service::AllreduceService svc(build_plan(kQ, core::Solution::kEdgeDisjoint),
                                  config);
  });
  const auto plan = build_plan(kQ, core::Solution::kEdgeDisjoint);
  const long long serial_cost =
      collectives::run_bucketed_allreduce(plan.topology(), plan.trees(), {768},
                                          sim_config,
                                          collectives::BucketStrategy::kFused)
          .total_cycles;
  const long long mean_gap =
      std::max<long long>(1, serial_cost * 1000 / kServiceLoadPermille);
  const auto stream = make_stream(mean_gap, derive(run.seed, 2));
  run.notes["serial_cost_cycles"] = std::to_string(serial_cost);
  run.notes["mean_gap_cycles"] = std::to_string(mean_gap);

  UnitSeries series;
  std::vector<SimSummary> seen;
  std::vector<service::JobRecord> records;
  service::ServiceStats stats;
  std::vector<std::vector<int>> lanes;
  measure_rounds(run, run.deadline, [&] {
    run_unit(run, series, [&] {
      auto svc = run.log.span("service.construct", [&] {
        return std::make_unique<service::AllreduceService>(plan, config);
      });
      run.log.span("service.submit", [&] {
        for (const auto& spec : stream) svc->submit(spec);
      });
      run.log.span("service.drain", [&] { svc->drain(); });
      records = svc->records();
      stats = svc->stats();
      lanes.clear();
      for (int l = 0; l < svc->num_lanes(); ++l) {
        lanes.push_back(svc->lane_trees(l));
      }
      for (const auto& r : records) {
        run.check(r.completed && !r.rejected,
                  "service_stream: job rejected or not completed");
      }
      if (!stats.values_correct) run.fail("service_stream: wrong reduction");
    });
    std::vector<long long> latency;
    std::map<std::pair<int, long long>, long long> batch_start;
    long long elements = 0;
    for (const auto& r : records) {
      latency.push_back(r.finish_cycle - r.spec.arrival_cycle);
      batch_start[{r.lane, r.finish_cycle}] = r.start_cycle;
      elements += r.spec.elements;
    }
    long long busy = 0;
    for (const auto& [key, start] : batch_start) busy += key.second - start;
    SimSummary s;
    s.sim_cycles = static_cast<double>(busy);
    s.epoch_cycles = static_cast<double>(stats.makespan_cycles);
    s.bw_vs_optimal = static_cast<double>(elements) /
                      static_cast<double>(stats.makespan_cycles) /
                      plan.optimal_bandwidth();
    s.jobs_per_kcycle = stats.jobs_per_kcycle;
    s.job_p50_cycles = static_cast<double>(perfbench::percentile(latency, 50));
    s.job_p99_cycles = static_cast<double>(perfbench::percentile(latency, 99));
    s.overlap_efficiency = 1.0;  // no compute phase to overlap with
    check_repeat(run, seen, s, "service_stream");
  });
  out.sim = seen.front();
  out.add(series);
  out.setup_s = setup_timer.finish();

  if (run.trace) {
    planner_layer_metrics(run, {{kQ, core::Solution::kEdgeDisjoint}}, 31);
    // The fused runs the service issued, one per distinct (lane, size),
    // recovered from the job records (a lane runs one batch at a time, so
    // (lane, finish) names a batch) and replayed through the same call.
    std::map<std::pair<int, long long>, long long> fused;
    for (const auto& r : records) {
      fused[{r.lane, r.finish_cycle}] += r.spec.elements;
    }
    std::set<std::pair<int, long long>> distinct;
    for (const auto& [key, total] : fused) distinct.insert({key.first, total});
    double sim_raw = 0;
    long long flit_hops = 0;
    const auto bracket = run.cal.unit([&] {
      for (const auto& [lane, total] : distinct) {
        std::vector<trees::SpanningTree> lane_trees;
        for (int t : lanes[static_cast<std::size_t>(lane)]) {
          lane_trees.push_back(plan.trees()[static_cast<std::size_t>(t)]);
        }
        run.log.span("simnet.run_bucketed_allreduce", [&] {
          const auto res = collectives::run_bucketed_allreduce(
              plan.topology(), lane_trees, {total}, sim_config,
              collectives::BucketStrategy::kFused);
          flit_hops += res.total_flits;
          if (!res.correct) run.fail("service_stream: replayed run wrong");
        }, &sim_raw);
      }
    });
    // Fixed per-run cost: one element per tree on the same trees.
    std::vector<double> fixed;
    for (int i = 0; i < 5; ++i) {
      double t = 0;
      const auto b = run.cal.unit([&] {
        run.log.span("simnet.fixed_run", [&] {
          return collectives::run_innetwork_allreduce(
              plan.topology(), plan.trees(), plan.num_trees(), sim_config);
        }, &t);
      });
      fixed.push_back(cal_of(t, b) * 1e3);
    }
    const double sim_ms = cal_of(sim_raw, bracket) * 1e3;
    const double drain_ms = series.layer_ms("service.drain");
    const double service_ms = drain_ms + series.layer_ms("service.submit") +
                              series.layer_ms("service.construct");
    int coalesced = 0;
    std::vector<long long> wait;
    for (const auto& r : records) {
      coalesced += r.batch_jobs > 1 ? 1 : 0;
      wait.push_back(r.start_cycle - r.spec.arrival_cycle);
    }
    const double n_distinct = static_cast<double>(distinct.size());
    run.metric("simnet.run_ms", sim_ms, "ms");
    run.metric("simnet.runs", n_distinct, "count");
    run.metric("simnet.flit_hops", static_cast<double>(flit_hops), "count");
    run.metric("simnet.ns_per_flit_hop",
               sim_ms * 1e6 / static_cast<double>(flit_hops), "ns");
    run.metric("simnet.fixed_ms_per_run", perfbench::median(fixed), "ms");
    run.metric("service.drain_ms", drain_ms, "ms");
    run.metric("service.sim_ms", sim_ms, "ms");
    run.metric("service.self_ms", drain_ms - sim_ms, "ms");
    run.metric("service.us_per_job", drain_ms * 1e3 / kServiceJobs, "us");
    run.metric("service.batches", stats.batches, "count");
    run.metric("service.distinct_runs", n_distinct, "count");
    run.metric("service.run_reuse_ratio",
               static_cast<double>(stats.batches) / n_distinct, "ratio");
    run.metric("service.coalesced_ratio",
               static_cast<double>(coalesced) /
                   static_cast<double>(records.size()),
               "ratio");
    run.metric("service.utilization", stats.utilization, "ratio");
    run.metric("service.wait_p50_cycles",
               static_cast<double>(perfbench::percentile(wait, 50)), "cycles");
    run.metric("service.wait_p99_cycles",
               static_cast<double>(perfbench::percentile(wait, 99)), "cycles");
    run.ledger.push_back({"simnet", "fused lane runs (replayed)", sim_ms});
    run.ledger.push_back({"service", "construct + submit + drain minus lane runs",
                          service_ms - sim_ms});
  }
  return out;
}

// ---------------------------------------------------------------------------
// training_replay: BSP training loop under congestion, a straggler and a
// scripted link failure.

struct TrainingSetup {
  workload::ReplayConfig config;
  std::vector<workload::Bucket> buckets;
};

TrainingSetup make_training(const core::AllreducePlan& plan,
                            std::uint64_t seed) {
  workload::ModelParams params;
  // The layer shapes come from the model's own fixed seed and every layer
  // is its own gradient bucket, so each seed replays the same multiset of
  // ~30 distinct bucket sizes (the same host work); --seed shuffles the
  // layer order, which moves when each bucket is released and how much of
  // its Allreduce overlaps compute.
  params.layers = 32;
  params.iterations = 4;
  params.layer_elements = 1000;
  params.forward_cycles = 2500;
  TrainingSetup setup;
  auto& c = setup.config;
  c.trace = workload::synthesize_trace(params);
  util::Rng order(derive(seed, 3));
  for (std::size_t i = c.trace.layers.size(); i > 1; --i) {
    std::swap(c.trace.layers[i - 1],
              c.trace.layers[static_cast<std::size_t>(order.next_below(i))]);
  }
  c.min_bucket_elements = 0;  // one bucket per layer
  c.overlap = true;
  c.mode = workload::CommMode::kSingle;
  c.sim = single_thread_config();
  c.sim.background.pattern = simnet::TrafficPattern::kUniform;
  c.sim.background.load = 0.25;
  c.sim.background.seed = derive(seed, 4);
  c.sim.progress_timeout = 800;
  c.skew.straggler_nodes = 1;
  c.skew.straggler_permille = 2000;
  c.skew.seed = derive(seed, 5);
  c.resilience.policy = collectives::RecoveryPolicy::kRepack;
  // Link-down on a seeded tree-0 uplink, early enough that every bucket's
  // run is still streaming: each distinct bucket detects, replans, replays.
  std::vector<std::pair<int, int>> uplinks;
  const auto& parents = plan.trees()[0].parents();
  for (int v = 0; v < static_cast<int>(parents.size()); ++v) {
    if (parents[static_cast<std::size_t>(v)] >= 0) {
      uplinks.emplace_back(v, parents[static_cast<std::size_t>(v)]);
    }
  }
  const auto& link = uplinks[derive(seed, 6) % uplinks.size()];
  const long long cycle = 48 + static_cast<long long>(derive(seed, 7) % 33);
  c.sim.faults.events.push_back(
      {cycle, link.first, link.second, simnet::FaultType::kLinkDown});
  setup.buckets = workload::bucketize(c.trace, c.min_bucket_elements);
  return setup;
}

Outcome run_training(Run& run) {
  Outcome out;
  SetupTimer setup_timer(run, [&] {
    const auto plan = build_plan(kQ, core::Solution::kLowDepth);
    make_training(plan, run.seed);
  });
  const auto plan = build_plan(kQ, core::Solution::kLowDepth);
  const TrainingSetup setup = make_training(plan, run.seed);
  const auto& config = setup.config;
  std::set<long long> distinct;
  for (const auto& b : setup.buckets) distinct.insert(b.elements);
  if (distinct.size() < 25) {
    run.problems.push_back("training_replay: fewer than 25 distinct buckets");
  }
  const auto& fault = config.sim.faults.events.front();
  run.notes["buckets"] = std::to_string(setup.buckets.size());
  run.notes["distinct_buckets"] = std::to_string(distinct.size());
  run.notes["fault"] = std::to_string(fault.u) + "-" + std::to_string(fault.v) +
                       " down at cycle " + std::to_string(fault.cycle);

  UnitSeries series;
  std::vector<SimSummary> seen;
  workload::ReplayResult result;
  const long long ops = static_cast<long long>(setup.buckets.size()) *
                        config.trace.iterations;
  measure_rounds(run, run.deadline, [&] {
    run_unit(run, series, [&] {
      result = run.log.span("workload.replay_training", [&] {
        return workload::replay_training(plan, config);
      });
      // values_correct folds in the resilient driver's `recovered` flag of
      // every bucket run (replay.cpp: cost.correct = recovered && correct).
      run.attempted += ops;
      if (!result.values_correct) {
        run.fail("training_replay: wrong or unrecovered reduction");
      }
      if (result.replayed_elements <= 0) {
        run.fail("training_replay: the fault never hit");
      }
    });
    std::vector<long long> iteration;
    for (const auto& it : result.iterations) {
      iteration.push_back(it.finish - it.start);
    }
    SimSummary s;
    s.sim_cycles = static_cast<double>(result.comm_busy_cycles);
    s.epoch_cycles = static_cast<double>(result.time_to_epoch);
    s.bw_vs_optimal =
        static_cast<double>(config.trace.total_gradient_elements() *
                            config.trace.iterations) /
        static_cast<double>(result.comm_busy_cycles) / plan.optimal_bandwidth();
    s.jobs_per_kcycle = 1000.0 * static_cast<double>(ops) /
                        static_cast<double>(result.time_to_epoch);
    s.job_p50_cycles = static_cast<double>(perfbench::percentile(iteration, 50));
    s.job_p99_cycles = static_cast<double>(perfbench::percentile(iteration, 99));
    s.overlap_efficiency = result.overlap_efficiency;
    check_repeat(run, seen, s, "training_replay");
  });
  out.sim = seen.front();
  out.add(series);
  out.setup_s = setup_timer.finish();

  if (run.trace) {
    planner_layer_metrics(run, {{kQ, core::Solution::kLowDepth}}, 31);
    std::vector<double> bucketize_ms;
    for (int g = 0; g < 5; ++g) {
      std::vector<double> raw;
      const auto b = run.cal.unit([&] {
        for (int i = 0; i < 200; ++i) {
          double t = 0;
          run.log.span("workload.bucketize", [&] {
            return workload::bucketize(config.trace, config.min_bucket_elements);
          }, &t);
          raw.push_back(t);
        }
      });
      bucketize_ms.push_back(cal_of(perfbench::median(raw), b) * 1e3);
    }
    // Attribution replay, outside the measured unit: the resilient runs
    // replay_training memoizes (one per distinct bucket size), then the
    // attempts each of them made (simulator runs and repacks).
    double resilient_raw = 0, sim_raw = 0, repack_raw = 0;
    long long attempts = 0, replayed = 0, repacks = 0, flit_hops = 0, runs = 0;
    std::map<long long, long long> bg_of_size;
    const simnet::SimConfig& inner = config.sim;
    const auto bracket = run.cal.unit([&] {
      for (long long m : distinct) {
        const auto stats =
            run.log.span("collectives.run_resilient_allreduce", [&] {
              return collectives::run_resilient_allreduce(
                  plan.topology(), plan.trees(), m, inner, config.resilience);
            }, &resilient_raw);
        attempts += stats.attempts;
        replayed += stats.chunks_replayed;
        if (!stats.recovered || !stats.values_correct) {
          run.fail("training_replay: replayed bucket not recovered");
        }
        if (stats.attempts < 2) {
          run.fail("training_replay: a bucket run missed the fault");
        }
        // Attempt 0: the healthy plan under the fault script.
        const auto split0 = model::optimal_split(
            m, model::compute_tree_bandwidths(plan.topology(), plan.trees(), 1.0));
        const auto first = run.log.span("simnet.run", [&] {
          simnet::AllreduceSimulator sim(
              plan.topology(), collectives::to_embeddings(plan.trees()), inner);
          return sim.run(split0);
        }, &sim_raw);
        ++runs;
        flit_hops += sum(first.link_flits);
        long long bg = first.background_flits;
        if (first.cycles != stats.attempt_log[0].cycles) {
          run.fail("training_replay: attribution replay of attempt 0 diverged");
        }
        // Retries: repack around the failed links, replay the lost part
        // (the downed link is gone from the residual, so no faults remain).
        for (std::size_t a = 1; a < stats.attempt_log.size(); ++a) {
          ++repacks;
          const auto degraded = run.log.span("core.degrade_repack", [&] {
            return core::degrade_repack(plan.topology(), stats.failed_links);
          }, &repack_raw);
          simnet::SimConfig retry = inner;
          retry.faults = {};
          const auto split = model::optimal_split(
              stats.attempt_log[a].elements,
              model::compute_tree_bandwidths(*degraded.topology,
                                             degraded.trees, 1.0));
          const auto res = run.log.span("simnet.run", [&] {
            simnet::AllreduceSimulator sim(
                *degraded.topology, collectives::to_embeddings(degraded.trees),
                retry);
            return sim.run(split);
          }, &sim_raw);
          ++runs;
          flit_hops += sum(res.link_flits);
          bg += res.background_flits;
          if (res.cycles != stats.attempt_log[a].cycles) {
            run.fail("training_replay: attribution replay of a retry diverged");
          }
        }
        bg_of_size[m] = bg;
      }
    });
    long long bg_per_iteration = 0;
    for (const auto& b : setup.buckets) bg_per_iteration += bg_of_size[b.elements];
    const double replay_ms = series.layer_ms("workload.replay_training");
    const double resilient_ms = cal_of(resilient_raw, bracket) * 1e3;
    const double sim_ms = cal_of(sim_raw, bracket) * 1e3;
    const double repack_ms = cal_of(repack_raw, bracket) * 1e3;
    run.metric("workload.replay_ms", replay_ms, "ms");
    run.metric("workload.bucketize_ms", perfbench::median(bucketize_ms), "ms");
    run.metric("workload.distinct_buckets",
               static_cast<double>(distinct.size()), "count");
    run.metric("collectives.resilient_ms", resilient_ms, "ms");
    run.metric("collectives.attempts", static_cast<double>(attempts), "count");
    run.metric("collectives.replayed_elements", static_cast<double>(replayed),
               "count");
    run.metric("core.repack_ms", repack_ms, "ms");
    run.metric("core.repacks", static_cast<double>(repacks), "count");
    run.metric("simnet.run_ms", sim_ms, "ms");
    run.metric("simnet.runs", static_cast<double>(runs), "count");
    run.metric("simnet.flit_hops", static_cast<double>(flit_hops), "count");
    run.metric("simnet.ns_per_flit_hop",
               sim_ms * 1e6 / static_cast<double>(flit_hops), "ns");
    run.metric("simnet.bg_flits",
               static_cast<double>(bg_per_iteration * config.trace.iterations),
               "count");
    run.metric("workload.exposed_comm_cycles",
               static_cast<double>(result.exposed_comm_cycles), "cycles");
    run.metric("workload.comm_busy_cycles",
               static_cast<double>(result.comm_busy_cycles), "cycles");
    run.ledger.push_back({"simnet", "attempt runs (replayed)", sim_ms});
    run.ledger.push_back({"core", "degrade_repack (replayed)", repack_ms});
    run.ledger.push_back({"collectives", "resilient driver minus runs and repack",
                          resilient_ms - sim_ms - repack_ms});
    run.ledger.push_back({"workload", "replay_training minus resilient runs",
                          replay_ms - resilient_ms});
  }
  return out;
}

// ---------------------------------------------------------------------------
// plan_scale: cold planning at large q, then one flow-tier Allreduce each.

Outcome run_plan_scale(Run& run) {
  const std::vector<int> qs{81, 101, 128};
  const std::vector<core::Solution> solutions{core::Solution::kLowDepth,
                                              core::Solution::kEdgeDisjoint};
  const long long m =
      20'000'000 + 100 * static_cast<long long>(derive(run.seed, 8) % 1000);
  run.notes["m"] = std::to_string(m);
  simnet::SimConfig config = single_thread_config();
  config.engine = simnet::SimEngine::kFlow;
  Outcome out;
  // One plan alive at a time (a q=128 plan alone is ~250 MiB): each plan
  // is built cold three times (set-up: the median build, summed over
  // plans), then measured for an equal share of the time.
  const double start = perfbench::wall_now();
  const double share = (run.deadline - start) / static_cast<double>(qs.size() * solutions.size());
  std::vector<PlanRun> runs;
  std::vector<std::pair<int, core::Solution>> all;
  for (int q : qs) {
    for (auto s : solutions) {
      all.emplace_back(q, s);
      std::optional<core::AllreducePlan> plan;
      std::vector<double> builds;
      for (int r = 0; r < 3; ++r) {
        plan.reset();
        malloc_trim(0);  // return the previous build before the next one
        builds.push_back(run.cal.unit([&] { plan = build_plan(q, s); }).calibrated_s);
      }
      out.setup_s += perfbench::median(builds);
      runs.push_back(measure_plan(run, out, *plan, m, config, "simnet.flow",
                                  start + share * static_cast<double>(all.size())));
    }
  }
  out.sim = per_plan_summary(runs);
  if (run.trace) {
    planner_layer_metrics(run, all, 1);
    double flow_ms = 0, call_ms = 0;
    long long flit_hops = 0;
    for (const auto& r : runs) {
      flow_ms += r.sim_ms;
      call_ms += r.call_ms;
      flit_hops += r.flit_hops;
    }
    run.metric("simnet.flow_ms", flow_ms, "ms");
    run.metric("simnet.runs", static_cast<double>(runs.size()), "count");
    run.metric("simnet.flit_hops", static_cast<double>(flit_hops), "count");
    run.metric("collectives.overhead_ms", call_ms - flow_ms, "ms");
    run.ledger.push_back({"simnet", "flow tier (replayed)", flow_ms});
    run.ledger.push_back({"collectives",
                          "run_innetwork_allreduce minus its flow run",
                          call_ms - flow_ms});
  }
  return out;
}

// ---------------------------------------------------------------------------

/// Every per-layer metric the benchmark declares, so each traced run
/// reports all of them (0 where the workload does not exercise a layer).
const std::vector<std::pair<const char*, const char*>>& layer_catalog() {
  static const std::vector<std::pair<const char*, const char*>> catalog{
      {"planner.topology_ms", "ms"}, {"planner.trees_ms", "ms"},
      {"planner.alg1_ms", "ms"}, {"planner.observer_ratio", "ratio"},
      {"simnet.flow_ms", "ms"}, {"simnet.run_ms", "ms"},
      {"simnet.runs", "count"}, {"simnet.flit_hops", "count"},
      {"simnet.ns_per_flit_hop", "ns"}, {"simnet.fixed_ms_per_run", "ms"},
      {"simnet.bg_flits", "count"}, {"collectives.overhead_ms", "ms"},
      {"collectives.resilient_ms", "ms"}, {"collectives.attempts", "count"},
      {"collectives.replayed_elements", "count"}, {"core.repack_ms", "ms"},
      {"core.repacks", "count"}, {"service.drain_ms", "ms"},
      {"service.sim_ms", "ms"}, {"service.self_ms", "ms"},
      {"service.us_per_job", "us"}, {"service.batches", "count"},
      {"service.distinct_runs", "count"}, {"service.run_reuse_ratio", "ratio"},
      {"service.coalesced_ratio", "ratio"}, {"service.utilization", "ratio"},
      {"service.wait_p50_cycles", "cycles"}, {"service.wait_p99_cycles", "cycles"},
      {"workload.replay_ms", "ms"}, {"workload.bucketize_ms", "ms"},
      {"workload.distinct_buckets", "count"},
      {"workload.exposed_comm_cycles", "cycles"},
      {"workload.comm_busy_cycles", "cycles"}, {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"}, {"calib.kernel_ms", "ms"},
      {"host.raw_cpu_s", "s"}};
  return catalog;
}

}  // namespace

int main(int argc, char** argv) {
  // Single thread whatever the environment says: every SimConfig and
  // planner here sets its thread count to 1 explicitly, and this catches
  // any default that reads PFAR_THREADS.
  setenv("PFAR_THREADS", "1", 1);
  const util::Args args(argc, argv);
  Run run;
  run.workload = args.get_string("workload", "");
  run.seed = static_cast<std::uint64_t>(args.get_int("seed", kDefaultSeed));
  run.seconds = static_cast<double>(args.get_int("seconds", 10));
  run.trace = args.get_int("trace", 0) != 0;
  const std::string out_dir = args.get_string("out-dir", ".bench_out");
  const std::map<std::string, Outcome (*)(Run&)> workloads{
      {"bulk_allreduce", run_bulk},
      {"service_stream", run_service},
      {"training_replay", run_training},
      {"plan_scale", run_plan_scale}};
  const auto it = workloads.find(run.workload);
  if (it == workloads.end() || run.seconds < 1) {
    std::fprintf(stderr,
                 "usage: pfar_perfbench --workload "
                 "bulk_allreduce|service_stream|training_replay|plan_scale "
                 "--seed N --seconds S --trace 0|1\n");
    return 2;
  }

  // Environment stamp, on stdout ahead of the result line.
  std::printf(
      "{\"env\": {\"nproc\": %ld, \"threads\": 1, \"build_type\": \"%s\", "
      "\"pfar_trace\": \"%s\", \"compiler\": \"%s\", \"git_sha\": \"%s\", "
      "\"src_digest\": \"%s\", \"default_seed\": %llu, \"seed\": %llu, "
      "\"workload\": \"%s\", \"seconds\": %g, \"trace\": %d}}\n",
      sysconf(_SC_NPROCESSORS_ONLN), PFAR_PERFBENCH_BUILD_TYPE,
      obsv::kTraceCompiled ? "on" : "off", PFAR_PERFBENCH_COMPILER,
      args.get_string("git-sha", "unavailable").c_str(),
      args.get_string("src-digest", "unavailable").c_str(),
      static_cast<unsigned long long>(kDefaultSeed),
      static_cast<unsigned long long>(run.seed), run.workload.c_str(),
      run.seconds, run.trace ? 1 : 0);

  const double start_wall = perfbench::wall_now();
  run.deadline = start_wall + run.seconds;
  Outcome out;
  try {
    out = it->second(run);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "FATAL: %s\n", e.what());
    return 1;
  }
  const double kernel_ms = perfbench::median(run.cal.kernel_samples()) * 1e3;

  std::vector<Metric> result;
  const double attempted = static_cast<double>(std::max<long long>(run.attempted, 1));
  if (!run.trace) {
    result = {
        {"setup_s", out.setup_s, "s"},
        {"host_s", out.host_s, "s"},
        {"peak_rss_mb", perfbench::peak_rss_mb(), "MiB"},
        {"success_ratio", (attempted - static_cast<double>(run.failed)) / attempted, "ratio"},
        {"sim_cycles", out.sim.sim_cycles, "cycles"},
        {"bw_vs_optimal", out.sim.bw_vs_optimal, "ratio"},
        {"jobs_per_kcycle", out.sim.jobs_per_kcycle, "1/kcycle"},
        {"job_p50_cycles", out.sim.job_p50_cycles, "cycles"},
        {"job_p99_cycles", out.sim.job_p99_cycles, "cycles"},
        {"epoch_cycles", out.sim.epoch_cycles, "cycles"},
        {"overlap_efficiency", out.sim.overlap_efficiency, "ratio"},
    };
  } else {
    std::map<std::string, double> measured;
    for (const auto& m : run.metrics) measured[m.name] = m.value;
    measured["trace.coverage"] =
        out.traced_host_s > 0 ? out.span_covered_s / out.traced_host_s : 0;
    measured["trace.overhead"] = out.host_s > 0 ? out.traced_host_s / out.host_s : 0;
    measured["calib.kernel_ms"] = kernel_ms;
    measured["host.raw_cpu_s"] = out.host_raw_s;
    for (const auto& [name, unit] : layer_catalog()) {
      result.push_back({name, measured.count(name) ? measured[name] : 0.0, unit});
    }
  }

  // Human-readable report.
  std::fprintf(stderr, "\n%s seed=%llu trace=%d: %lld ops, %lld failed\n",
               run.workload.c_str(), static_cast<unsigned long long>(run.seed),
               run.trace ? 1 : 0, run.attempted, run.failed);
  for (const auto& [k, v] : run.notes) std::fprintf(stderr, "  %s = %s\n", k.c_str(), v.c_str());
  std::fprintf(stderr, "  host_s %.6f calibrated, %.6f raw CPU s; kernel median %.3f ms over %zu runs\n",
               out.host_s, out.host_raw_s, kernel_ms, run.cal.kernel_samples().size());
  if (run.trace) {
    std::fprintf(stderr, "\n  per-layer self time per pass (calibrated ms):\n");
    double covered = 0;
    for (const auto& row : run.ledger) {
      std::fprintf(stderr, "    %-12s %12.3f  %s\n", row.layer.c_str(), row.self_ms,
                   row.what.c_str());
      if (row.layer != "planner") covered += row.self_ms;
    }
    std::fprintf(stderr, "    %-12s %12.3f  %s\n", "bench", out.traced_host_s * 1e3 - covered,
                 "traced unit time outside layer calls");
    std::fprintf(stderr, "    %-12s %12.3f  (untraced host_s %.3f ms)\n", "total",
                 out.traced_host_s * 1e3, out.host_s * 1e3);
  }
  for (const auto& p : run.problems) std::fprintf(stderr, "  PROBLEM: %s\n", p.c_str());

  // Spans and details, written at exit.
  const std::string path = out_dir + "/" + run.workload + "-seed" +
                           std::to_string(run.seed) + "-trace" +
                           (run.trace ? "1" : "0") + ".json";
  if (std::FILE* f = std::fopen(path.c_str(), "w")) {
    std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d,\n \"ledger\": [",
                 run.workload.c_str(), static_cast<unsigned long long>(run.seed),
                 run.trace ? 1 : 0);
    for (std::size_t i = 0; i < run.ledger.size(); ++i) {
      std::fprintf(f, "%s{\"layer\": \"%s\", \"self_ms\": %.6f}", i ? ", " : "",
                   run.ledger[i].layer.c_str(), run.ledger[i].self_ms);
    }
    std::fprintf(f, "],\n \"kernel_ms\": [");
    const auto& ks = run.cal.kernel_samples();
    for (std::size_t i = 0; i < ks.size(); ++i) {
      std::fprintf(f, "%s%.4f", i ? ", " : "", ks[i] * 1e3);
    }
    std::fprintf(f, "],\n \"spans\": ");
    run.log.write_json(f);
    std::fprintf(f, "}\n");
    std::fclose(f);
  }

  // Raw CPU time and the kernel next to the calibrated figure, so any
  // drift of the calibration stays auditable.
  std::printf(
      "{\"calibration\": {\"host_s\": %.17g, \"host_raw_cpu_s\": %.17g, "
      "\"kernel_median_ms\": %.6f, \"kernel_runs\": %zu, "
      "\"kernel_nominal_ms\": %g, \"speed_exponent\": %g}}\n",
      out.host_s, out.host_raw_s, kernel_ms, run.cal.kernel_samples().size(),
      perfbench::kKernelNominalS * 1e3, perfbench::kSpeedExponent);
  const bool correct = run.failed == 0;
  perfbench::print_result(correct, std::max<long long>(run.attempted, 1),
                          run.failed, result);
  return correct ? 0 : 1;
}
