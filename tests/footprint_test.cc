// Footprint conflict semantics (MergeEffects / EffectsConflict) and the
// simulator's batch-level hazard detection built on top of them.
#include "src/sim/footprint.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "src/sim/simulator.h"

namespace dumbnet {
namespace footprint {
namespace {

FpEffect Read() { return FpEffect{FpAccess::kRead, nullptr}; }
FpEffect Write() { return FpEffect{FpAccess::kWrite, nullptr}; }
FpEffect Commute(const char* reason) { return FpEffect{FpAccess::kCommute, reason}; }

TEST(FootprintEffectTest, MergeCollapsesWriteOverCommuteOverRead) {
  EXPECT_EQ(MergeEffects(Read(), Read()).access, FpAccess::kRead);
  EXPECT_EQ(MergeEffects(Read(), Write()).access, FpAccess::kWrite);
  EXPECT_EQ(MergeEffects(Write(), Read()).access, FpAccess::kWrite);
  const FpEffect rc = MergeEffects(Read(), Commute("max-merge"));
  EXPECT_EQ(rc.access, FpAccess::kCommute);
  EXPECT_STREQ(rc.reason, "max-merge");
  EXPECT_EQ(MergeEffects(Commute("max-merge"), Write()).access, FpAccess::kWrite);
}

TEST(FootprintEffectTest, TwoCommuteReasonsEscalateToWrite) {
  // One handler claiming membership in two different commuting families has no
  // single algebraic argument for the combined update.
  EXPECT_EQ(MergeEffects(Commute("max-merge"), Commute("set-union")).access,
            FpAccess::kWrite);
  const FpEffect same = MergeEffects(Commute("max-merge"), Commute("max-merge"));
  EXPECT_EQ(same.access, FpAccess::kCommute);
  EXPECT_STREQ(same.reason, "max-merge");
}

TEST(FootprintEffectTest, ConflictMatrix) {
  EXPECT_FALSE(EffectsConflict(Read(), Read()));
  EXPECT_TRUE(EffectsConflict(Read(), Write()));
  EXPECT_TRUE(EffectsConflict(Write(), Write()));
  EXPECT_TRUE(EffectsConflict(Write(), Commute("max-merge")));
  EXPECT_FALSE(EffectsConflict(Commute("max-merge"), Commute("max-merge")));
  EXPECT_TRUE(EffectsConflict(Commute("max-merge"), Commute("set-union")));
  // The commute claim covers other writers, not observers.
  EXPECT_TRUE(EffectsConflict(Read(), Commute("max-merge")));
}

TEST(FootprintEffectTest, SameReasonComparesContentNotAddress) {
  const std::string a = "max-merge";
  const std::string b = "max-merge";
  EXPECT_TRUE(SameReason(a.c_str(), b.c_str()));
  EXPECT_FALSE(SameReason("max-merge", "set-union"));
  EXPECT_TRUE(SameReason(nullptr, nullptr));
  EXPECT_FALSE(SameReason("max-merge", nullptr));
}

class FootprintSimTest : public ::testing::Test {
 protected:
  void TearDown() override { SetEnabled(false); }

  // Schedules two events at the same timestamp running `a` then `b`.
  void RunPair(std::function<void()> a, std::function<void()> b) {
    sim_.ScheduleAt(10, std::move(a));
    sim_.ScheduleAt(10, std::move(b));
    sim_.Run();
  }

  Simulator sim_;
};

TEST_F(FootprintSimTest, WriteWritePairIsAHazard) {
  SetEnabled(true);
  std::vector<BatchHazard> hazards;
  sim_.SetHazardHook([&hazards](const BatchHazard& h) { hazards.push_back(h); });
  RunPair(
      [] {
        DN_FP_SCOPE("test.a", 1);
        DN_FP_WRITE(kScenario, 42);
      },
      [] {
        DN_FP_SCOPE("test.b", 2);
        DN_FP_WRITE(kScenario, 42);
      });
  ASSERT_EQ(sim_.hazards_detected(), 1u);
  ASSERT_EQ(hazards.size(), 1u);
  EXPECT_EQ(hazards[0].at, 10);
  EXPECT_EQ(hazards[0].batch_size, 2u);
  EXPECT_EQ(hazards[0].pos_a, 0u);
  EXPECT_EQ(hazards[0].pos_b, 1u);
  EXPECT_EQ(hazards[0].space, FpSpace::kScenario);
  EXPECT_EQ(hazards[0].id, 42u);
  EXPECT_STREQ(hazards[0].label_a, "test.a");
  EXPECT_STREQ(hazards[0].label_b, "test.b");
  std::string line;
  FormatHazard(hazards[0], line);
  EXPECT_NE(line.find("test.a"), std::string::npos) << line;
}

TEST_F(FootprintSimTest, SameReasonCommutesAreClean) {
  SetEnabled(true);
  RunPair([] { DN_FP_COMMUTES(kScenario, 42, "max-merge"); },
          [] { DN_FP_COMMUTES(kScenario, 42, "max-merge"); });
  EXPECT_EQ(sim_.hazards_detected(), 0u);
}

TEST_F(FootprintSimTest, DifferentReasonCommutesConflict) {
  SetEnabled(true);
  RunPair([] { DN_FP_COMMUTES(kScenario, 42, "max-merge"); },
          [] { DN_FP_COMMUTES(kScenario, 42, "set-union"); });
  EXPECT_EQ(sim_.hazards_detected(), 1u);
}

TEST_F(FootprintSimTest, ReadAgainstCommuteConflicts) {
  SetEnabled(true);
  RunPair([] { DN_FP_READ(kScenario, 42); },
          [] { DN_FP_COMMUTES(kScenario, 42, "max-merge"); });
  EXPECT_EQ(sim_.hazards_detected(), 1u);
}

TEST_F(FootprintSimTest, ReadsAndDisjointEntitiesAreClean) {
  SetEnabled(true);
  RunPair([] { DN_FP_READ(kScenario, 42); }, [] { DN_FP_READ(kScenario, 42); });
  sim_.ScheduleAt(20, [] { DN_FP_WRITE(kScenario, 1); });
  sim_.ScheduleAt(20, [] { DN_FP_WRITE(kScenario, 2); });  // different entity
  sim_.ScheduleAt(30, [] { DN_FP_WRITE(kHost, 1); });
  sim_.ScheduleAt(30, [] { DN_FP_WRITE(kScenario, 1); });  // different space
  sim_.Run();
  EXPECT_EQ(sim_.hazards_detected(), 0u);
}

TEST_F(FootprintSimTest, MixedCommuteReasonsInOneEventEscalate) {
  SetEnabled(true);
  // Event A claims two commuting families for the same entity -> effective
  // Write; even a same-family commute in event B now conflicts.
  RunPair(
      [] {
        DN_FP_COMMUTES(kScenario, 42, "max-merge");
        DN_FP_COMMUTES(kScenario, 42, "set-union");
      },
      [] { DN_FP_COMMUTES(kScenario, 42, "max-merge"); });
  EXPECT_EQ(sim_.hazards_detected(), 1u);
}

TEST_F(FootprintSimTest, RuntimeDisabledCollectsNothing) {
  // Default state: not enabled. Conflicting writes must not
  // be collected, and singleton batches never count toward batch indices.
  RunPair([] { DN_FP_WRITE(kScenario, 42); }, [] { DN_FP_WRITE(kScenario, 42); });
  EXPECT_EQ(sim_.hazards_detected(), 0u);
}

TEST_F(FootprintSimTest, SingletonBatchesDoNotAdvanceBatchIndex) {
  SetEnabled(true);
  sim_.ScheduleAt(10, [] { DN_FP_WRITE(kScenario, 42); });
  sim_.ScheduleAt(20, [] { DN_FP_WRITE(kScenario, 42); });
  sim_.Run();
  EXPECT_EQ(sim_.batches_formed(), 0u);
  EXPECT_EQ(sim_.hazards_detected(), 0u);
  sim_.ScheduleAt(30, [] {});
  sim_.ScheduleAt(30, [] {});
  sim_.Run();
  EXPECT_EQ(sim_.batches_formed(), 1u);
}

}  // namespace
}  // namespace footprint
}  // namespace dumbnet
