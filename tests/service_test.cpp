// The multi-tenant allreduce service (src/service/, docs/service_layer.md):
// lane construction against the plan's link-disjoint tree groups, the
// tenant-fair scheduler, small-job coalescing, admission control, the
// one-shot equivalence of the serial policy, the tentpole throughput claim,
// and the determinism of a submission history's timeline.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "collectives/bucket_schedule.hpp"
#include "collectives/innetwork.hpp"
#include "model/congestion_model.hpp"
#include "obsv/recorder.hpp"
#include "service/service.hpp"
#include "util/contracts.hpp"
#include "util/rng.hpp"

namespace {

using namespace pfar;

core::AllreducePlan make_plan(int q) {
  return core::AllreducePlanner(q)
      .solution(core::Solution::kEdgeDisjoint)
      .build();
}

service::JobSpec job(int tenant, long long elements, long long arrival,
                     int priority = 0,
                     service::ReduceOp op = service::ReduceOp::kSum) {
  service::JobSpec spec;
  spec.tenant = tenant;
  spec.elements = elements;
  spec.op = op;
  spec.priority = priority;
  spec.arrival_cycle = arrival;
  return spec;
}

TEST(ServiceTest, SerialSingleJobMatchesOneShotCost) {
  const auto plan = make_plan(5);
  service::ServiceConfig config;
  config.policy = service::SchedulerPolicy::kSerial;
  const long long cost =
      collectives::run_bucketed_allreduce(
          plan.topology(), plan.trees(), {1234}, config.sim,
          collectives::BucketStrategy::kFused)
          .total_cycles;

  service::AllreduceService svc(plan, config);
  const int id = svc.submit(job(0, 1234, 100));
  svc.drain();
  const auto& r = svc.records()[static_cast<std::size_t>(id)];
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.admit_cycle, 100);
  EXPECT_EQ(r.start_cycle, 100);
  EXPECT_EQ(r.finish_cycle, 100 + cost);
  EXPECT_EQ(r.lane, 0);
  EXPECT_EQ(r.batch_jobs, 1);
  EXPECT_TRUE(svc.stats().values_correct);
}

TEST(ServiceTest, RejectsFaultScripts) {
  // Lane runs have no recovery. Under a link-down and a progress timeout a
  // run cancels the trees through the link and never delivers part of the
  // vector; a service accepting the script would mark such a job
  // completed and correct.
  const auto plan = core::AllreducePlanner(7).build();
  const auto& parents = plan.trees()[0].parents();
  int child = 0;
  while (parents[static_cast<std::size_t>(child)] < 0) ++child;
  service::ServiceConfig config;
  config.policy = service::SchedulerPolicy::kSerial;
  config.sim.progress_timeout = 800;
  config.sim.faults.events.push_back(
      {40, child, parents[static_cast<std::size_t>(child)],
       simnet::FaultType::kLinkDown});
  const auto direct = collectives::run_innetwork_allreduce(
      plan.topology(), plan.trees(), 4000, config.sim);
  long long lost = 0;
  for (std::size_t t = 0; t < direct.sim.tree_failed.size(); ++t) {
    if (direct.sim.tree_failed[t]) {
      lost += direct.split[t] - direct.sim.tree_completed[t];
    }
  }
  EXPECT_GT(lost, 0);
  util::contracts::ScopedThrowHandler guard;
  EXPECT_THROW(service::AllreduceService(plan, config),
               util::contracts::ContractViolation);
}

TEST(ServiceTest, BackgroundTrafficFlowsThroughLaneRuns) {
  // ServiceConfig::sim carries the background-traffic block verbatim into
  // every lane's simulator run (docs/congestion_adaptation.md): a loaded
  // network must slow jobs down, and a zero-load block must be an exact
  // no-op versus a quiet config.
  const auto plan = make_plan(5);
  const auto run_with = [&](double load) {
    service::ServiceConfig config;
    config.policy = service::SchedulerPolicy::kSerial;
    config.sim.background.pattern = simnet::TrafficPattern::kPermutation;
    config.sim.background.load = load;
    config.sim.background.seed = 7;
    service::AllreduceService svc(plan, config);
    const int id = svc.submit(job(0, 4000, 0));
    svc.drain();
    EXPECT_TRUE(svc.stats().values_correct);
    const auto& r = svc.records()[static_cast<std::size_t>(id)];
    EXPECT_TRUE(r.completed);
    return r.finish_cycle - r.start_cycle;
  };
  const long long quiet = run_with(0.0);
  const long long loaded = run_with(0.5);
  EXPECT_GT(loaded, quiet);

  service::ServiceConfig untouched;  // background never mentioned
  untouched.policy = service::SchedulerPolicy::kSerial;
  service::AllreduceService svc(plan, untouched);
  const int id = svc.submit(job(0, 4000, 0));
  svc.drain();
  EXPECT_EQ(svc.records()[static_cast<std::size_t>(id)].finish_cycle -
                svc.records()[static_cast<std::size_t>(id)].start_cycle,
            quiet);
}

TEST(ServiceTest, LanesMatchLinkDisjointGroups) {
  const auto plan = make_plan(7);
  const auto groups = plan.link_disjoint_tree_groups();

  service::ServiceConfig partitioned;
  partitioned.policy = service::SchedulerPolicy::kPartitioned;
  service::AllreduceService svc(plan, partitioned);
  ASSERT_EQ(svc.num_lanes(), static_cast<int>(groups.size()));
  for (int l = 0; l < svc.num_lanes(); ++l) {
    EXPECT_EQ(svc.lane_trees(l), groups[static_cast<std::size_t>(l)]);
  }

  service::ServiceConfig serial;
  serial.policy = service::SchedulerPolicy::kSerial;
  service::AllreduceService one(plan, serial);
  ASSERT_EQ(one.num_lanes(), 1);
  EXPECT_EQ(static_cast<int>(one.lane_trees(0).size()), plan.num_trees());
}

TEST(ServiceTest, PartitionedRunsJobsConcurrently) {
  const auto plan = make_plan(3);  // 2 edge-disjoint trees -> 2 lanes
  service::ServiceConfig config;
  config.policy = service::SchedulerPolicy::kPartitioned;
  service::AllreduceService svc(plan, config);
  ASSERT_EQ(svc.num_lanes(), 2);
  const int a = svc.submit(job(0, 400, 0));
  const int b = svc.submit(job(1, 400, 0));
  svc.drain();
  const auto& ra = svc.records()[static_cast<std::size_t>(a)];
  const auto& rb = svc.records()[static_cast<std::size_t>(b)];
  // Both dispatched at cycle 0 on distinct lanes: exact concurrency.
  EXPECT_EQ(ra.start_cycle, 0);
  EXPECT_EQ(rb.start_cycle, 0);
  EXPECT_NE(ra.lane, rb.lane);
}

TEST(ServiceTest, BatchedCoalescesQueuedJobs) {
  const auto plan = make_plan(3);
  service::ServiceConfig config;
  config.policy = service::SchedulerPolicy::kPartitionedBatched;
  service::AllreduceService svc(plan, config);
  // Park both lanes on long jobs of different operators (which therefore
  // cannot coalesce with each other or with the queue behind them).
  svc.submit(job(0, 3000, 0, 0, service::ReduceOp::kSum));
  svc.submit(job(0, 3000, 0, 0, service::ReduceOp::kMax));
  std::vector<int> small;
  for (int i = 0; i < 4; ++i) {
    small.push_back(svc.submit(job(1, 100, 1, 0, service::ReduceOp::kSum)));
  }
  svc.drain();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.completed, 6);
  EXPECT_EQ(stats.batches, 3);  // two parked jobs + one fused batch of 4
  EXPECT_EQ(stats.coalesced_jobs, 4);
  long long fused_finish = -1;
  for (int id : small) {
    const auto& r = svc.records()[static_cast<std::size_t>(id)];
    EXPECT_EQ(r.batch_jobs, 4);
    if (fused_finish < 0) fused_finish = r.finish_cycle;
    EXPECT_EQ(r.finish_cycle, fused_finish);  // land together (kFused)
  }
}

TEST(ServiceTest, BatchedThroughputAtLeastTwiceSerial) {
  // The tentpole acceptance claim at test scale: a small-message burst at
  // q=7 (4 lanes). Partitioning amortizes nothing by itself on a
  // bandwidth-neutral fabric — the >= 2x comes from paying the deep
  // Hamiltonian pipeline fill once per fused batch instead of once per
  // job, across 4 concurrent lanes.
  const auto plan = make_plan(7);
  util::Rng rng(7);
  std::vector<service::JobSpec> burst;
  for (int i = 0; i < 80; ++i) {
    burst.push_back(job(i % 4,
                        64 + static_cast<long long>(rng.next_below(449)),
                        0));
  }
  const auto run = [&](service::SchedulerPolicy policy) {
    service::ServiceConfig config;
    config.policy = policy;
    service::AllreduceService svc(plan, config);
    for (const auto& spec : burst) svc.submit(spec);
    svc.drain();
    const auto stats = svc.stats();
    EXPECT_EQ(stats.completed, 80);
    EXPECT_TRUE(stats.values_correct);
    return stats.jobs_per_kcycle;
  };
  const double serial = run(service::SchedulerPolicy::kSerial);
  const double batched = run(service::SchedulerPolicy::kPartitionedBatched);
  EXPECT_GE(batched, 2.0 * serial)
      << "batched " << batched << " vs serial " << serial;
}

TEST(ServiceTest, TenantFairnessPreventsStarvation) {
  // Tenant 0 floods the queue; tenant 1's two jobs must interleave by the
  // served-elements ledger instead of waiting behind the flood.
  const auto plan = make_plan(3);
  service::ServiceConfig config;
  config.policy = service::SchedulerPolicy::kSerial;
  service::AllreduceService svc(plan, config);
  std::vector<int> flood;
  for (int i = 0; i < 6; ++i) flood.push_back(svc.submit(job(0, 500, 0)));
  std::vector<int> light;
  for (int i = 0; i < 2; ++i) light.push_back(svc.submit(job(1, 500, 0)));
  svc.drain();
  long long light_last = 0;
  for (int id : light) {
    light_last = std::max(light_last,
                          svc.records()[static_cast<std::size_t>(id)]
                              .finish_cycle);
  }
  int flood_before = 0;
  for (int id : flood) {
    const auto& r = svc.records()[static_cast<std::size_t>(id)];
    EXPECT_TRUE(r.completed);
    if (r.finish_cycle < light_last) ++flood_before;
  }
  // Strict alternation once the ledger diverges: at most 2 flood jobs can
  // precede the light tenant's last finish.
  EXPECT_LE(flood_before, 2);
}

TEST(ServiceTest, PriorityOrdersWithinTenant) {
  const auto plan = make_plan(3);
  service::ServiceConfig config;
  config.policy = service::SchedulerPolicy::kSerial;
  service::AllreduceService svc(plan, config);
  svc.submit(job(0, 2000, 0));  // parks the single lane
  const int low = svc.submit(job(0, 300, 1, /*priority=*/0));
  const int high = svc.submit(job(0, 300, 2, /*priority=*/5));
  svc.drain();
  // Despite arriving later, the high-priority job dispatches first.
  EXPECT_LT(svc.records()[static_cast<std::size_t>(high)].finish_cycle,
            svc.records()[static_cast<std::size_t>(low)].finish_cycle);
}

TEST(ServiceTest, AdmissionControlRejectsOverflow) {
  const auto plan = make_plan(3);
  service::ServiceConfig config;
  config.policy = service::SchedulerPolicy::kSerial;
  config.max_queue_jobs = 2;
  service::AllreduceService svc(plan, config);
  svc.submit(job(0, 2000, 0));  // dispatched immediately, leaves the queue
  std::vector<int> wave;
  for (int i = 0; i < 4; ++i) wave.push_back(svc.submit(job(0, 200, 1)));
  svc.drain();
  const auto stats = svc.stats();
  EXPECT_EQ(stats.submitted, 5);
  EXPECT_EQ(stats.admitted, 3);
  EXPECT_EQ(stats.rejected, 2);
  EXPECT_EQ(stats.completed, 3);
  // Arrival order decides who hits the full queue: the first two of the
  // wave are admitted, the last two rejected.
  EXPECT_FALSE(svc.records()[static_cast<std::size_t>(wave[0])].rejected);
  EXPECT_FALSE(svc.records()[static_cast<std::size_t>(wave[1])].rejected);
  EXPECT_TRUE(svc.records()[static_cast<std::size_t>(wave[2])].rejected);
  EXPECT_TRUE(svc.records()[static_cast<std::size_t>(wave[3])].rejected);
}

TEST(ServiceTest, ZeroElementJobCompletesInstantly) {
  const auto plan = make_plan(3);
  service::AllreduceService svc(plan, service::ServiceConfig{});
  const int id = svc.submit(job(0, 0, 11));
  svc.drain();
  const auto& r = svc.records()[static_cast<std::size_t>(id)];
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.finish_cycle, 11);
  EXPECT_EQ(svc.stats().total_flits, 0);
}

TEST(ServiceDeterminism, BitIdenticalAcrossRuns) {
  // The service schedule is integer arithmetic over deterministic sim
  // results, so one submission history yields one multi-tenant timeline.
  const auto plan = make_plan(5);
  const auto run = [&] {
    service::ServiceConfig config;
    config.policy = service::SchedulerPolicy::kPartitionedBatched;
    service::AllreduceService svc(plan, config);
    util::Rng rng(11);
    for (int i = 0; i < 12; ++i) {
      svc.submit(job(i % 3,
                     64 + static_cast<long long>(rng.next_below(2000)),
                     static_cast<long long>(i) * 97));
    }
    svc.drain();
    std::vector<long long> timeline;
    for (const auto& r : svc.records()) {
      timeline.push_back(r.start_cycle);
      timeline.push_back(r.finish_cycle);
      timeline.push_back(r.lane);
      timeline.push_back(r.batch_jobs);
    }
    return timeline;
  };
  const auto first = run();
  EXPECT_EQ(first.size(), 48u);
  EXPECT_EQ(first, run());
}

TEST(ServiceTest, ResumableAcrossDrains) {
  const auto plan = make_plan(3);
  service::AllreduceService svc(plan, service::ServiceConfig{});
  svc.submit(job(0, 300, 0));
  svc.drain();
  const long long after_first = svc.now();
  EXPECT_GT(after_first, 0);
  // Late submission dated in the past is clamped to the persistent clock.
  const int id = svc.submit(job(0, 300, 0));
  svc.drain();
  const auto& r = svc.records()[static_cast<std::size_t>(id)];
  EXPECT_TRUE(r.completed);
  EXPECT_GE(r.admit_cycle, after_first);
  EXPECT_EQ(svc.stats().completed, 2);
}

TEST(ServiceTest, RecorderCapturesServiceTelemetry) {
  const auto plan = make_plan(3);
  obsv::Recorder recorder(1u << 16);
  service::ServiceConfig config;
  config.sim.recorder = &recorder;
  service::AllreduceService svc(plan, config);
  for (int i = 0; i < 5; ++i) svc.submit(job(i % 2, 200, i * 10));
  svc.drain();
  const auto stats = svc.stats();
  EXPECT_EQ(recorder.metrics.counter("service.jobs.completed"),
            stats.completed);
  EXPECT_EQ(recorder.metrics.counter("service.jobs.admitted"),
            stats.admitted);
  EXPECT_EQ(recorder.metrics.counter("service.batches"), stats.batches);
  EXPECT_GT(recorder.trace.size(), 0u);  // per-lane batch spans
  // Every batch was costed one way: simulated, a memo hit or shifted.
  EXPECT_EQ(recorder.metrics.counter("service.lane_runs.simulated") +
                recorder.metrics.counter("service.lane_runs.memo") +
                recorder.metrics.counter("service.lane_runs.shifted"),
            stats.batches);

  // The q=3 edge-disjoint lanes are one rooted shape and share a memo: the
  // second 200-element job hits the first one's run from the other lane.
  // That run settled into a verified period, so 300 and 301 elements are
  // shifted from it.
  obsv::Recorder lanes_recorder(1u << 16);
  service::ServiceConfig partitioned;
  partitioned.policy = service::SchedulerPolicy::kPartitioned;
  partitioned.sim.recorder = &lanes_recorder;
  service::AllreduceService lanes(plan, partitioned);
  ASSERT_EQ(lanes.num_lanes(), 2);
  lanes.submit(job(0, 200, 0));
  lanes.submit(job(1, 200, 0));
  lanes.submit(job(0, 300, 100'000));
  lanes.submit(job(1, 301, 100'000));
  lanes.drain();
  EXPECT_EQ(lanes_recorder.metrics.counter("service.lane_runs.simulated"), 1);
  EXPECT_EQ(lanes_recorder.metrics.counter("service.lane_runs.memo"), 1);
  EXPECT_EQ(lanes_recorder.metrics.counter("service.lane_runs.shifted"), 2);
  const auto& r = lanes.records();
  EXPECT_NE(r[0].lane, r[1].lane);
  EXPECT_EQ(r[0].finish_cycle, r[1].finish_cycle);
  EXPECT_EQ(r[3].finish_cycle - r[3].start_cycle,
            r[2].finish_cycle - r[2].start_cycle + 1);
}

// Under background traffic each link drains at its own rate, so lanes of
// one shape no longer run alike: every lane simulates its own runs, and
// each batch still costs exactly its own lane's run.
TEST(ServiceTest, LanesUnderBackgroundKeepTheirOwnCost) {
  const auto plan = make_plan(5);
  obsv::Recorder recorder(1u << 16);
  service::ServiceConfig config;
  config.policy = service::SchedulerPolicy::kPartitioned;
  config.sim.background.pattern = simnet::TrafficPattern::kPermutation;
  config.sim.background.load = 0.3;
  config.sim.recorder = &recorder;
  service::AllreduceService svc(plan, config);
  for (int l = 0; l < svc.num_lanes(); ++l) svc.submit(job(l, 700, 0));
  svc.drain();
  EXPECT_EQ(recorder.metrics.counter("service.lane_runs.simulated"),
            svc.num_lanes());
  simnet::SimConfig sim = config.sim;
  sim.recorder = nullptr;
  for (const auto& r : svc.records()) {
    const auto& ids = svc.lane_trees(r.lane);
    std::vector<trees::SpanningTree> trees;
    for (int t : ids) trees.push_back(plan.trees()[static_cast<std::size_t>(t)]);
    const auto bw = model::compute_tree_bandwidths(plan.topology(), trees, 1.0);
    const auto run = collectives::run_planned_allreduce(
        plan.topology(), trees, model::optimal_split(700, bw), bw, sim);
    EXPECT_EQ(r.finish_cycle - r.start_cycle, run.sim.cycles)
        << "lane " << r.lane;
  }
}

}  // namespace
