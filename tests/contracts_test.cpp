// Tests for the contract layer (src/util/contracts.hpp): level selection,
// failure-message formatting, the throwing test hook, and the annotated
// seams in the library proper.

#include "util/contracts.hpp"

#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "collectives/innetwork.hpp"
#include "collectives/resilient.hpp"
#include "core/planner.hpp"
#include "core/serialize.hpp"
#include "oracle/reference_allreduce.hpp"
#include "simnet/allreduce_sim.hpp"
#include "simnet/config.hpp"

namespace contracts = pfar::util::contracts;
using contracts::ContractViolation;
using contracts::ScopedThrowHandler;

namespace {

TEST(Contracts, PassingContractIsSilent) {
  ScopedThrowHandler guard;
  int evaluations = 0;
  EXPECT_NO_THROW(PFAR_REQUIRE(++evaluations > 0));
  EXPECT_NO_THROW(PFAR_ENSURE(true));
  EXPECT_EQ(evaluations, 1);  // condition evaluated exactly once
}

TEST(Contracts, RequireThrowsWithKindAndExpression) {
  ScopedThrowHandler guard;
  try {
    const int q = 1;
    PFAR_REQUIRE(q >= 2, q);
    FAIL() << "PFAR_REQUIRE did not fire";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "REQUIRE");
    EXPECT_EQ(v.expr(), "q >= 2");
    const std::string msg = v.what();
    EXPECT_NE(msg.find("pfar contract violation: REQUIRE(q >= 2)"),
              std::string::npos)
        << msg;
    EXPECT_NE(msg.find("contracts_test.cpp"), std::string::npos) << msg;
    EXPECT_NE(msg.find("q = 1"), std::string::npos) << msg;
  }
}

TEST(Contracts, EnsureFormatsEveryOperand) {
  ScopedThrowHandler guard;
  try {
    const int lhs = 3;
    const long long rhs = -7;
    const std::string name = "tree";
    PFAR_ENSURE(lhs == rhs, lhs, rhs, name);
    FAIL() << "PFAR_ENSURE did not fire";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "ENSURE");
    const std::string msg = v.what();
    EXPECT_NE(msg.find("lhs = 3"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rhs = -7"), std::string::npos) << msg;
    EXPECT_NE(msg.find("name = tree"), std::string::npos) << msg;
  }
}

TEST(Contracts, UnprintableOperandsAreMarked) {
  ScopedThrowHandler guard;
  struct Opaque {
    int x = 0;
  };
  try {
    const Opaque state;
    PFAR_REQUIRE(state.x == 1, state);
    FAIL() << "PFAR_REQUIRE did not fire";
  } catch (const ContractViolation& v) {
    EXPECT_NE(std::string(v.what()).find("state = <unprintable>"),
              std::string::npos)
        << v.what();
  }
}

TEST(Contracts, LevelSelectionMatchesBuildConfiguration) {
  {
    ScopedThrowHandler guard;
    EXPECT_THROW(PFAR_REQUIRE(false), ContractViolation);
    EXPECT_THROW(PFAR_ENSURE(false), ContractViolation);
  }

#if PFAR_AUDIT_ENABLED
  {
    ScopedThrowHandler guard;
    EXPECT_THROW(PFAR_INVARIANT(false), ContractViolation);
  }
#else
  // PFAR_INVARIANT is dead below audit level: the condition and operands
  // must not be evaluated at all.
  int invariant_evaluations = 0;
  PFAR_INVARIANT(++invariant_evaluations > 0, ++invariant_evaluations);
  EXPECT_EQ(invariant_evaluations, 0);
#endif
}

TEST(Contracts, HandlerRestoredAfterScopeExit) {
  contracts::FailHandler before = contracts::set_fail_handler(nullptr);
  contracts::set_fail_handler(before);
  {
    ScopedThrowHandler guard;
    contracts::FailHandler inside = contracts::set_fail_handler(nullptr);
    EXPECT_NE(inside, before);
    contracts::set_fail_handler(inside);
  }
  contracts::FailHandler after = contracts::set_fail_handler(nullptr);
  contracts::set_fail_handler(after);
  EXPECT_EQ(after, before);
}

TEST(Contracts, NestedScopedHandlersUnwindInOrder) {
  ScopedThrowHandler outer;
  {
    ScopedThrowHandler inner;
    EXPECT_THROW(PFAR_REQUIRE(false), ContractViolation);
  }
  // The outer handler is still in force after the inner scope ends.
  EXPECT_THROW(PFAR_REQUIRE(false), ContractViolation);
}

// Real seam: serializing a default-constructed (never built) plan violates
// PlanIO::write's preconditions and must fail as a structured contract
// violation, not as garbage output.
TEST(Contracts, SerializeUnbuiltPlanViolatesPrecondition) {
  ScopedThrowHandler guard;
  try {
    const pfar::core::AllreducePlan empty;
    pfar::core::serialize_plan(empty, 0);
    FAIL() << "precondition did not fire";
  } catch (const ContractViolation& v) {
    EXPECT_EQ(v.kind(), "REQUIRE");
    EXPECT_NE(std::string(v.what()).find("topology_"), std::string::npos)
        << v.what();
  }
}

// Conservation at the moment a link dies: drop_edge asserts (PFAR_ENSURE)
// that credits + in-flight credits + in-flight data + queued flits equal the
// VC budget immediately before the drop, and that credits + queued flits
// equal it immediately after. Running a faulted simulation under the
// throwing handler exercises those seams on every killed link; a violation
// would surface here as a ContractViolation instead of silent flit loss.
TEST(Contracts, LinkDeathPreservesCreditConservation) {
  ScopedThrowHandler guard;
  const auto plan = pfar::core::AllreducePlanner(7).build();

  // An uplink each victim tree actually uses, so the drop happens with data
  // genuinely in flight.
  const auto uplink = [&plan](int tree_index) {
    const auto& parents =
        plan.trees()[static_cast<std::size_t>(tree_index)].parents();
    for (int v = 0; v < static_cast<int>(parents.size()); ++v) {
      const int p = parents[static_cast<std::size_t>(v)];
      if (p >= 0) return pfar::graph::Edge(v, p);
    }
    throw std::logic_error("tree has no edges");
  };

  pfar::simnet::SimConfig cfg;
  cfg.progress_timeout = 800;
  // Kill two used links at different cycles, mid-collective, so
  // drop_edge runs its conservation checks (the pre/post PFAR_ENSUREs)
  // twice with queues occupied, the second time after a cancellation.
  const pfar::graph::Edge victim = uplink(0);
  cfg.faults.events.push_back(
      {200, victim.u, victim.v, pfar::simnet::FaultType::kLinkDown});
  const pfar::graph::Edge second = uplink(1);
  cfg.faults.events.push_back(
      {350, second.u, second.v, pfar::simnet::FaultType::kLinkDown});

  for (const bool use_oracle : {true, false}) {
    pfar::simnet::SimResult res;
    EXPECT_NO_THROW(
        res = use_oracle
                  ? pfar::oracle::run_reference_allreduce(
                        plan.topology(), plan.trees(), cfg, plan.split(2000))
                  : pfar::simnet::AllreduceSimulator(plan.topology(),
                                                     plan.trees(), cfg)
                        .run(plan.split(2000)))
        << (use_oracle ? "oracle" : "simulator");

    // The modeled in-flight losses are accounted, not vanished: every
    // dropped flit is attributed to a specific directed link.
    long long per_link = 0;
    for (const long long d : res.link_dropped_flits) {
      EXPECT_GE(d, 0);
      per_link += d;
    }
    EXPECT_EQ(per_link, res.dropped_flits);
    EXPECT_GT(res.dropped_flits, 0);
    EXPECT_GE(res.dropped_packets, 1);
    EXPECT_GE(res.canceled_flits, 0);
    // Nothing corrupt ever reached a root: losses degrade progress, never
    // correctness.
    EXPECT_TRUE(res.values_correct);
  }
}

// The resilient driver must surface those same in-flight losses in its
// RecoveryStats: chunks replayed on the degraded plan are exactly the
// elements the faulted attempts failed to finish, and the per-attempt log
// reconciles with the totals.
TEST(Contracts, RecoveryStatsAccountForInFlightLosses) {
  ScopedThrowHandler guard;
  const auto plan = pfar::core::AllreducePlanner(7).build();

  const auto& parents = plan.trees()[0].parents();
  pfar::graph::Edge victim(0, 0);
  for (int v = 0; v < static_cast<int>(parents.size()); ++v) {
    const int p = parents[static_cast<std::size_t>(v)];
    if (p >= 0) {
      victim = pfar::graph::Edge(v, p);
      break;
    }
  }

  pfar::simnet::SimConfig cfg;
  cfg.progress_timeout = 800;
  cfg.faults.events.push_back(
      {200, victim.u, victim.v, pfar::simnet::FaultType::kLinkDown});

  const auto stats = pfar::collectives::run_resilient_allreduce(
      plan.topology(), plan.trees(), 1500, cfg);
  ASSERT_TRUE(stats.recovered);
  EXPECT_TRUE(stats.values_correct);
  ASSERT_GE(stats.attempt_log.size(), 2u);

  long long lost = 0;
  long long cycles = 0;
  for (const auto& attempt : stats.attempt_log) {
    EXPECT_GE(attempt.elements_lost, 0);
    lost += attempt.elements_lost;
    cycles += attempt.cycles;
  }
  // Every lost element was replayed exactly once per failing attempt...
  EXPECT_EQ(stats.chunks_replayed, lost);
  EXPECT_GT(stats.chunks_replayed, 0);
  // ...and the final attempt lost nothing.
  EXPECT_EQ(stats.attempt_log.back().elements_lost, 0);
  // Total cycles cover all attempts (plus backoff between them).
  EXPECT_GE(stats.total_cycles, cycles);
  EXPECT_GE(stats.detection_cycle, 200);
  ASSERT_EQ(stats.failed_links.size(), 1u);
  EXPECT_EQ(stats.failed_links[0], victim);
}

#if PFAR_AUDIT_ENABLED
// Audit-level sweep: building every solution for a small design point runs
// the expensive whole-structure invariants (spanning trees, congestion,
// disjointness) without firing.
TEST(Contracts, AuditLevelBuildPassesAllInvariants) {
  ScopedThrowHandler guard;
  for (const auto solution :
       {pfar::core::Solution::kLowDepth, pfar::core::Solution::kEdgeDisjoint,
        pfar::core::Solution::kSingleTree}) {
    EXPECT_NO_THROW(static_cast<void>(pfar::core::AllreducePlanner(7)
                                          .solution(solution)
                                          .build()));
  }
}
#endif

}  // namespace
