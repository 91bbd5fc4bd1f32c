// FaultPlan grammar: parse, describe round-trip, per-rank filtering, and
// the seeded random generator's determinism and recoverability guarantees.
#include "fault/plan.hpp"

#include <gtest/gtest.h>

#include "common/check.hpp"

namespace hqr::fault {
namespace {

TEST(FaultPlan, ParsesEveryActionKind) {
  const FaultPlan p = FaultPlan::parse("kill:2@3;drop:1-3@2;delay:0-1@4+0.5");
  ASSERT_EQ(p.actions.size(), 3u);

  EXPECT_EQ(p.actions[0].kind, FaultKind::KillRank);
  EXPECT_EQ(p.actions[0].rank, 2);
  EXPECT_EQ(p.actions[0].at_task, 3);

  EXPECT_EQ(p.actions[1].kind, FaultKind::DropLink);
  EXPECT_EQ(p.actions[1].rank, 1);
  EXPECT_EQ(p.actions[1].peer, 3);
  EXPECT_EQ(p.actions[1].at_task, 2);

  EXPECT_EQ(p.actions[2].kind, FaultKind::DelayLink);
  EXPECT_EQ(p.actions[2].rank, 0);
  EXPECT_EQ(p.actions[2].peer, 1);
  EXPECT_EQ(p.actions[2].at_task, 4);
  EXPECT_DOUBLE_EQ(p.actions[2].delay_seconds, 0.5);
}

TEST(FaultPlan, DescribeRoundTripsThroughParse) {
  const FaultPlan p = FaultPlan::parse("kill:2@3;drop:1-3@2;delay:0-1@4+0.5");
  const FaultPlan q = FaultPlan::parse(p.describe());
  ASSERT_EQ(q.actions.size(), p.actions.size());
  for (std::size_t i = 0; i < p.actions.size(); ++i) {
    EXPECT_EQ(q.actions[i].kind, p.actions[i].kind);
    EXPECT_EQ(q.actions[i].rank, p.actions[i].rank);
    EXPECT_EQ(q.actions[i].peer, p.actions[i].peer);
    EXPECT_EQ(q.actions[i].at_task, p.actions[i].at_task);
    EXPECT_DOUBLE_EQ(q.actions[i].delay_seconds, p.actions[i].delay_seconds);
  }
}

TEST(FaultPlan, ActionsForFiltersByExecutingRank) {
  const FaultPlan p = FaultPlan::parse("kill:2@3;drop:1-3@2;kill:1@5");
  EXPECT_EQ(p.actions_for(0).size(), 0u);
  EXPECT_EQ(p.actions_for(2).size(), 1u);
  const auto r1 = p.actions_for(1);
  ASSERT_EQ(r1.size(), 2u);
  EXPECT_EQ(r1[0].kind, FaultKind::DropLink);
  EXPECT_EQ(r1[1].kind, FaultKind::KillRank);
}

TEST(FaultPlan, MalformedSpecsThrowTyped) {
  EXPECT_THROW(FaultPlan::parse("kill:x@3"), Error);
  EXPECT_THROW(FaultPlan::parse("explode:1@2"), Error);
  EXPECT_THROW(FaultPlan::parse("kill:1"), Error);
  EXPECT_THROW(FaultPlan::parse("drop:1@2"), Error);
  EXPECT_THROW(FaultPlan::parse("delay:0-1@4"), Error);
}

TEST(FaultPlan, EmptySpecIsEmptyPlan) {
  EXPECT_TRUE(FaultPlan::parse("").empty());
}

TEST(FaultPlan, RandomIsDeterministicAndRecoverable) {
  for (std::uint64_t seed = 1; seed <= 64; ++seed) {
    const FaultPlan a = FaultPlan::random(seed, 4, 10);
    const FaultPlan b = FaultPlan::random(seed, 4, 10);
    EXPECT_EQ(a.describe(), b.describe()) << "seed " << seed;
    ASSERT_EQ(a.actions.size(), 1u);
    const FaultAction& act = a.actions[0];
    EXPECT_GE(act.rank, 0);
    EXPECT_LT(act.rank, 4);
    EXPECT_GE(act.at_task, 1);
    EXPECT_LE(act.at_task, 10);
    // Kill victims avoid the unrecoverable collector rank by contract.
    if (act.kind == FaultKind::KillRank) {
      EXPECT_NE(act.rank, 0);
    }
    if (act.kind != FaultKind::KillRank) {
      EXPECT_GE(act.peer, 0);
      EXPECT_LT(act.peer, 4);
      EXPECT_NE(act.peer, act.rank);
    }
  }
}

}  // namespace
}  // namespace hqr::fault
