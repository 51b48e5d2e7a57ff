#include <gtest/gtest.h>

#include <numeric>

#include "collectives/bucket_schedule.hpp"
#include "collectives/resilient.hpp"
#include "core/planner.hpp"

namespace pfar::collectives {
namespace {

TEST(BucketScheduleTest, FusedBeatsSerialized) {
  // Fusing buckets into one stream pays the tree pipeline fill once
  // instead of once per bucket.
  const auto plan = core::AllreducePlanner(5).build();
  const std::vector<long long> buckets{500, 500, 500, 500};
  const auto serialized = run_bucketed_allreduce(
      plan.topology(), plan.trees(), buckets, simnet::SimConfig{},
      BucketStrategy::kSerialized);
  const auto fused = run_bucketed_allreduce(
      plan.topology(), plan.trees(), buckets, simnet::SimConfig{},
      BucketStrategy::kFused);
  EXPECT_TRUE(serialized.correct);
  EXPECT_TRUE(fused.correct);
  EXPECT_LT(fused.total_cycles, serialized.total_cycles);
  EXPECT_EQ(serialized.bucket_finish.size(), buckets.size());
  EXPECT_EQ(fused.bucket_finish.size(), 1u);
}

TEST(BucketScheduleTest, FusionGainLargerForDeepTrees) {
  // Hamiltonian trees have a (N-1)/2 pipeline fill, so fusing matters far
  // more there than for depth-3 trees.
  const auto shallow = core::AllreducePlanner(5).build();
  const auto deep =
      core::AllreducePlanner(5).solution(core::Solution::kEdgeDisjoint).build();
  const std::vector<long long> buckets(8, 200);
  const auto gain = [&](const core::AllreducePlan& plan) {
    const auto s = run_bucketed_allreduce(plan.topology(), plan.trees(),
                                          buckets, simnet::SimConfig{},
                                          BucketStrategy::kSerialized);
    const auto f = run_bucketed_allreduce(plan.topology(), plan.trees(),
                                          buckets, simnet::SimConfig{},
                                          BucketStrategy::kFused);
    return static_cast<double>(s.total_cycles) /
           static_cast<double>(f.total_cycles);
  };
  EXPECT_GT(gain(deep), gain(shallow));
}

TEST(BucketScheduleTest, SerializedFinishTimesAreMonotone) {
  const auto plan = core::AllreducePlanner(3).build();
  const std::vector<long long> buckets{100, 300, 50};
  const auto r = run_bucketed_allreduce(plan.topology(), plan.trees(),
                                        buckets, simnet::SimConfig{},
                                        BucketStrategy::kSerialized);
  ASSERT_EQ(r.bucket_finish.size(), 3u);
  EXPECT_LT(r.bucket_finish[0], r.bucket_finish[1]);
  EXPECT_LT(r.bucket_finish[1], r.bucket_finish[2]);
  EXPECT_EQ(r.bucket_finish.back(), r.total_cycles);
}

TEST(BucketScheduleTest, RejectsEmptyBucketList) {
  const auto plan = core::AllreducePlanner(3).build();
  EXPECT_THROW(run_bucketed_allreduce(plan.topology(), plan.trees(), {},
                                      simnet::SimConfig{},
                                      BucketStrategy::kFused),
               std::invalid_argument);
}

TEST(BucketScheduleTest, RejectsNegativeBucket) {
  const auto plan = core::AllreducePlanner(3).build();
  EXPECT_THROW(run_bucketed_allreduce(plan.topology(), plan.trees(),
                                      {100, -1}, simnet::SimConfig{},
                                      BucketStrategy::kSerialized),
               std::invalid_argument);
}

TEST(BucketScheduleTest, ZeroLengthBucketsAreFree) {
  // The service coalescer can emit zero-length buckets (e.g. a replayed
  // job whose remainder vanished); they must cost no cycles and no flits.
  const auto plan = core::AllreducePlanner(3).build();
  const simnet::SimConfig cfg;
  const auto with_zeros =
      run_bucketed_allreduce(plan.topology(), plan.trees(), {0, 500, 0},
                             cfg, BucketStrategy::kSerialized);
  const auto just_payload = run_bucketed_allreduce(
      plan.topology(), plan.trees(), {500}, cfg, BucketStrategy::kSerialized);
  EXPECT_TRUE(with_zeros.correct);
  EXPECT_EQ(with_zeros.total_cycles, just_payload.total_cycles);
  EXPECT_EQ(with_zeros.total_flits, just_payload.total_flits);
  ASSERT_EQ(with_zeros.bucket_finish.size(), 3u);
  EXPECT_EQ(with_zeros.bucket_finish[0], 0);  // nothing ran yet
  EXPECT_EQ(with_zeros.bucket_finish[1], with_zeros.bucket_finish[2]);
}

TEST(BucketScheduleTest, AllZeroBucketsCompleteInstantly) {
  const auto plan = core::AllreducePlanner(3).build();
  for (const auto strategy :
       {BucketStrategy::kSerialized, BucketStrategy::kFused}) {
    const auto r = run_bucketed_allreduce(plan.topology(), plan.trees(),
                                          {0, 0, 0}, simnet::SimConfig{},
                                          strategy);
    EXPECT_TRUE(r.correct);
    EXPECT_EQ(r.total_cycles, 0);
    EXPECT_EQ(r.total_flits, 0);
    for (const long long finish : r.bucket_finish) EXPECT_EQ(finish, 0);
  }
}

TEST(BucketScheduleTest, SingleTreeHandlesAnyBucketCount) {
  // Buckets partition the time axis, not the tree axis: a single-tree
  // (SHARP-like) plan takes any bucket count, including more buckets than
  // trees by far.
  const auto plan = core::AllreducePlanner(3)
                        .solution(core::Solution::kSingleTree)
                        .build();
  ASSERT_EQ(plan.num_trees(), 1);
  const std::vector<long long> buckets{50, 0, 120, 70, 200, 30, 90};
  const auto r =
      run_bucketed_allreduce(plan.topology(), plan.trees(), buckets,
                             simnet::SimConfig{}, BucketStrategy::kSerialized);
  EXPECT_TRUE(r.correct);
  ASSERT_EQ(r.bucket_finish.size(), buckets.size());
  for (std::size_t i = 1; i < buckets.size(); ++i) {
    EXPECT_LE(r.bucket_finish[i - 1], r.bucket_finish[i]);
  }
  EXPECT_EQ(r.bucket_finish.back(), r.total_cycles);
}

TEST(BucketScheduleTest, MoreBucketsThanTreesFuseToOneRun) {
  // 7 buckets over the 2 edge-disjoint trees of q=3: fused must equal one
  // run of the summed vector, in both cycles and flits.
  const auto plan = core::AllreducePlanner(3)
                        .solution(core::Solution::kEdgeDisjoint)
                        .build();
  ASSERT_LT(plan.num_trees(), 7);
  const std::vector<long long> buckets{100, 40, 0, 260, 10, 90, 500};
  const simnet::SimConfig cfg;
  const auto fused = run_bucketed_allreduce(plan.topology(), plan.trees(),
                                            buckets, cfg,
                                            BucketStrategy::kFused);
  const auto one = run_bucketed_allreduce(plan.topology(), plan.trees(),
                                          {1000}, cfg,
                                          BucketStrategy::kFused);
  EXPECT_TRUE(fused.correct);
  EXPECT_EQ(fused.bucket_finish.size(), 1u);
  EXPECT_EQ(fused.total_cycles, one.total_cycles);
  EXPECT_EQ(fused.total_flits, one.total_flits);
}

TEST(BucketScheduleTest, SerializedFlitsAreSumOfPerBucketRuns) {
  const auto plan = core::AllreducePlanner(3).build();
  const simnet::SimConfig cfg;
  const auto both = run_bucketed_allreduce(plan.topology(), plan.trees(),
                                           {300, 700}, cfg,
                                           BucketStrategy::kSerialized);
  long long expected = 0;
  for (const long long m : {300LL, 700LL}) {
    expected += run_bucketed_allreduce(plan.topology(), plan.trees(), {m},
                                       cfg, BucketStrategy::kSerialized)
                    .total_flits;
  }
  EXPECT_GT(both.total_flits, 0);
  EXPECT_EQ(both.total_flits, expected);
}

TEST(BucketScheduleTest, CanceledTreesMakeTheScheduleIncorrect) {
  // No recovery here: a link-down on a tree-0 uplink with a progress
  // timeout cancels the trees through it, and the elements they never
  // delivered must not count as a correct reduction (the delivered values
  // alone are all exact).
  const auto plan = core::AllreducePlanner(7).build();
  const auto& parents = plan.trees()[0].parents();
  int child = 0;
  while (parents[static_cast<std::size_t>(child)] < 0) ++child;
  simnet::SimConfig cfg;
  cfg.progress_timeout = 800;
  cfg.faults.events.push_back({40, child,
                               parents[static_cast<std::size_t>(child)],
                               simnet::FaultType::kLinkDown});
  for (const auto strategy :
       {BucketStrategy::kSerialized, BucketStrategy::kFused}) {
    const auto r = run_bucketed_allreduce(plan.topology(), plan.trees(),
                                          {2000, 2000}, cfg, strategy);
    EXPECT_FALSE(r.correct);
    EXPECT_GT(r.total_cycles, 0);
  }
}

TEST(TreeSetCostTest, RecoversOnlyWhenGivenResilience) {
  // Same fault as above: with a ResilienceConfig the cost comes from the
  // resilient driver (every element delivered, the lost part replayed);
  // without one it is a single run that loses elements.
  const auto plan = core::AllreducePlanner(7).build();
  const auto& parents = plan.trees()[0].parents();
  int child = 0;
  while (parents[static_cast<std::size_t>(child)] < 0) ++child;
  simnet::SimConfig cfg;
  cfg.progress_timeout = 800;
  cfg.faults.events.push_back({40, child,
                               parents[static_cast<std::size_t>(child)],
                               simnet::FaultType::kLinkDown});
  TreeSetCost recovering(plan.topology(), plan.trees(), cfg,
                         ResilienceConfig{});
  const RunCost recovered = recovering.cost(2000);
  const auto direct = run_resilient_allreduce(plan.topology(), plan.trees(),
                                              2000, cfg, ResilienceConfig{});
  EXPECT_TRUE(recovered.correct);
  EXPECT_EQ(recovered.cycles, direct.total_cycles);
  EXPECT_EQ(recovered.replayed, direct.chunks_replayed);
  EXPECT_GT(recovered.replayed, 0);

  TreeSetCost lossy(plan.topology(), plan.trees(), cfg);
  EXPECT_FALSE(lossy.cost(2000).correct);
  EXPECT_EQ(lossy.cost(2000).replayed, 0);
  EXPECT_EQ(lossy.cost(0).cycles, 0);  // nothing to move, nothing run
}

TEST(MultiJobTest, PartitionedTreesServeTwoJobsConcurrently) {
  // Tenancy: split the q low-depth trees between two jobs; both streams
  // run concurrently on disjoint tree subsets of the same fabric, and
  // every element of both jobs reduces exactly.
  const auto plan = core::AllreducePlanner(7).build();
  simnet::AllreduceSimulator sim(plan.topology(), plan.trees(),
                                 simnet::SimConfig{});
  // Job A on trees 0..3, job B on trees 4..6 (element counts differ).
  std::vector<long long> elements(static_cast<std::size_t>(plan.num_trees()), 0);
  for (int t = 0; t < 4; ++t) elements[static_cast<std::size_t>(t)] = 2000;
  for (int t = 4; t < plan.num_trees(); ++t) elements[static_cast<std::size_t>(t)] = 1000;
  const auto r = sim.run(elements);
  EXPECT_TRUE(r.values_correct);
  EXPECT_EQ(r.total_elements,
            std::accumulate(elements.begin(), elements.end(), 0LL));
  // Job B's smaller streams finish earlier.
  EXPECT_LT(r.tree_finish_cycle[5], r.tree_finish_cycle[0]);
}

}  // namespace
}  // namespace pfar::collectives
