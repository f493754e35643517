// DPOR schedule explorer: a deliberately injected ordering race must be
// detected (footprint conflict), confirmed (divergent terminal hash under a
// permuted schedule), and minimized to the smallest schedule that reproduces
// it; the schedule file format must round-trip so counterexamples replay.
#include "src/analysis/explore.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/sim/footprint.h"
#include "src/sim/simulator.h"

namespace dumbnet {
namespace {

using explore::Conflict;
using explore::Explore;
using explore::ExploreConfig;
using explore::ExploreReport;
using explore::HazardCollector;
using explore::MakePermuter;
using explore::ParseSchedule;
using explore::RunOutcome;
using explore::Schedule;
using explore::SerializeSchedule;

// Toy scenario with two same-timestamp batches:
//   t=10: two DN_FP_COMMUTES max-merge writes (benign, must not be a hazard)
//   t=20: x = x*3 racing x = x+7 (declared writes; order changes the result)
// Terminal hash encodes both cells.
RunOutcome ToyScenario(const Schedule& schedule) {
  Simulator sim;
  sim.SetBatchPermuter(MakePermuter(schedule));
  HazardCollector collector(&sim);
  footprint::SetEnabled(true);
  uint64_t x = 1;
  uint64_t mx = 0;
  sim.ScheduleAt(10, [&mx] {
    DN_FP_SCOPE("toy.merge_a", 1);
    DN_FP_COMMUTES(kScenario, 2, "max-merge");
    mx = std::max<uint64_t>(mx, 5);
  });
  sim.ScheduleAt(10, [&mx] {
    DN_FP_SCOPE("toy.merge_b", 2);
    DN_FP_COMMUTES(kScenario, 2, "max-merge");
    mx = std::max<uint64_t>(mx, 9);
  });
  sim.ScheduleAt(20, [&x] {
    DN_FP_SCOPE("toy.scale", 1);
    DN_FP_WRITE(kScenario, 1);
    x = x * 3;
  });
  sim.ScheduleAt(20, [&x] {
    DN_FP_SCOPE("toy.add", 2);
    DN_FP_WRITE(kScenario, 1);
    x = x + 7;
  });
  sim.Run();
  footprint::SetEnabled(false);

  RunOutcome out;
  out.state_hash = x * 1000 + mx;
  out.events = sim.executed_events();
  out.batches = sim.batches_formed();
  out.conflicts = collector.TakeConflicts();
  out.hazard_lines = collector.TakeLines();
  return out;
}

TEST(ExploreTest, FindsAndMinimizesInjectedRace) {
  ExploreReport report = Explore(ToyScenario, ExploreConfig{});
  // Canonical: x = (1*3)+7 = 10, mx = 9.
  EXPECT_EQ(report.base.state_hash, 10u * 1000 + 9);
  // Only the write/write pair is a hazard; the annotated max-merge pair is not.
  ASSERT_EQ(report.base.conflicts.size(), 1u);
  EXPECT_EQ(report.base.conflicts[0].batch_index, 1u);
  EXPECT_EQ(report.base.conflicts[0].pos_a, 0u);
  EXPECT_EQ(report.base.conflicts[0].pos_b, 1u);

  ASSERT_TRUE(report.diverged);
  // Reversed: x = (1+7)*3 = 24.
  EXPECT_EQ(report.divergent_hash, 24u * 1000 + 9);
  ASSERT_EQ(report.counterexample.choices.size(), 1u);
  const auto& [batch, order] = *report.counterexample.choices.begin();
  EXPECT_EQ(batch, 1u);
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 0}));
}

TEST(ExploreTest, CounterexampleReplaysThroughPermuter) {
  ExploreReport report = Explore(ToyScenario, ExploreConfig{});
  ASSERT_TRUE(report.diverged);
  // Round-trip the counterexample through its wire form, then replay.
  auto parsed = ParseSchedule(SerializeSchedule(report.counterexample));
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value() == report.counterexample);
  RunOutcome replayed = ToyScenario(parsed.value());
  EXPECT_EQ(replayed.state_hash, report.divergent_hash);
}

TEST(ExploreTest, CommutingPairAloneProducesNoWork) {
  auto scenario = [](const Schedule& schedule) {
    Simulator sim;
    sim.SetBatchPermuter(MakePermuter(schedule));
    HazardCollector collector(&sim);
    footprint::SetEnabled(true);
    uint64_t mx = 0;
    for (uint64_t v : {5u, 9u, 3u}) {
      sim.ScheduleAt(10, [&mx, v] {
        DN_FP_COMMUTES(kScenario, 2, "max-merge");
        mx = std::max(mx, v);
      });
    }
    sim.Run();
    footprint::SetEnabled(false);
    RunOutcome out;
    out.state_hash = mx;
    out.conflicts = collector.TakeConflicts();
    return out;
  };
  ExploreReport report = Explore(scenario, ExploreConfig{});
  EXPECT_TRUE(report.base.conflicts.empty());
  EXPECT_FALSE(report.diverged);
  EXPECT_EQ(report.schedules_run, 1u);  // nothing to permute: no conflicts
}

// A race only visible when BOTH batches are reordered: exploration must search
// past depth one, and minimization must keep both (necessary) choices.
TEST(ExploreTest, TwoChoiceRaceSurvivesMinimization) {
  auto scenario = [](const Schedule& schedule) {
    Simulator sim;
    sim.SetBatchPermuter(MakePermuter(schedule));
    HazardCollector collector(&sim);
    footprint::SetEnabled(true);
    // o0 / o1 record whether batch 0 / batch 1 ran reversed.
    uint64_t y = 0;
    uint64_t z = 0;
    sim.ScheduleAt(10, [&y] {
      DN_FP_WRITE(kScenario, 10);
      if (y == 0) y = 1;  // canonical first
    });
    sim.ScheduleAt(10, [&y] {
      DN_FP_WRITE(kScenario, 10);
      if (y == 0) y = 2;  // reversed first
    });
    sim.ScheduleAt(20, [&z] {
      DN_FP_WRITE(kScenario, 20);
      if (z == 0) z = 1;
    });
    sim.ScheduleAt(20, [&z] {
      DN_FP_WRITE(kScenario, 20);
      if (z == 0) z = 2;
    });
    sim.Run();
    footprint::SetEnabled(false);
    RunOutcome out;
    out.state_hash = (y == 2 && z == 2) ? 1 : 0;  // diverges only when both flip
    out.conflicts = collector.TakeConflicts();
    return out;
  };
  ExploreReport report = Explore(scenario, ExploreConfig{});
  ASSERT_TRUE(report.diverged);
  EXPECT_EQ(report.divergent_hash, 1u);
  EXPECT_EQ(report.counterexample.choices.size(), 2u);
  EXPECT_EQ(report.counterexample.choices.count(0), 1u);
  EXPECT_EQ(report.counterexample.choices.count(1), 1u);
}

TEST(ExploreTest, BudgetBoundsExploration) {
  ExploreConfig config;
  config.max_schedules = 1;  // base run only
  ExploreReport report = Explore(ToyScenario, config);
  EXPECT_FALSE(report.diverged);
  EXPECT_TRUE(report.budget_exhausted);
  EXPECT_EQ(report.schedules_run, 1u);
}

TEST(ExploreTest, ScheduleSerializationRoundTrips) {
  Schedule schedule;
  schedule.choices[3] = {2, 0, 1};
  schedule.choices[17] = {1, 0};
  const std::string text = SerializeSchedule(schedule);
  EXPECT_NE(text.find("# dumbnet-explore schedule v1"), std::string::npos);
  EXPECT_NE(text.find("batch 3 order 2 0 1"), std::string::npos);
  EXPECT_NE(text.find("batch 17 order 1 0"), std::string::npos);
  auto parsed = ParseSchedule(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed.value() == schedule);
}

TEST(ExploreTest, ScheduleParserRejectsGarbage) {
  EXPECT_FALSE(ParseSchedule("batch x order 0 1").ok());
  EXPECT_FALSE(ParseSchedule("batch 1 order 0 0").ok());   // duplicate position
  EXPECT_FALSE(ParseSchedule("batch 1 order 0 2").ok());   // not 0..n-1
  EXPECT_FALSE(ParseSchedule("batch 1 order").ok());       // empty order
  EXPECT_FALSE(ParseSchedule("batch 1 order 1 0\nbatch 1 order 0 1").ok());
  EXPECT_TRUE(ParseSchedule("# comment only\n\n").ok());
  EXPECT_TRUE(ParseSchedule("").ok());
}

TEST(ExploreTest, PermuterIgnoresSizeMismatch) {
  Schedule schedule;
  schedule.choices[0] = {1, 0};  // batch will actually have 3 events
  auto permuter = MakePermuter(schedule);
  std::vector<uint32_t> order = {0, 1, 2};
  permuter(0, 10, order);
  EXPECT_EQ(order, (std::vector<uint32_t>{0, 1, 2}));
  order = {0, 1};
  permuter(0, 10, order);
  EXPECT_EQ(order, (std::vector<uint32_t>{1, 0}));
}

}  // namespace
}  // namespace dumbnet
