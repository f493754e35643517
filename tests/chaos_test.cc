// Tests for src/chaos: schedule generation determinism and well-formedness,
// serialize/parse round-trips, RunSchedule convergence on a healthy fabric,
// notification-interceptor accounting, gray-loss seed determinism, and the
// ddmin schedule minimizer.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/core/fabric.h"
#include "src/topo/generators.h"
#include "src/util/rng.h"
#include "tests/random_topo.h"
#include "tests/test_fabric.h"

namespace dumbnet {
namespace {

using chaos::ChaosAction;
using chaos::ChaosConfig;
using chaos::ChaosSchedule;
using testing_topo::RandomHostedTopology;

ChaosConfig SmallConfig(uint64_t seed) {
  ChaosConfig config;
  config.seed = seed;
  config.start = Ms(5);
  config.horizon = Ms(40);
  config.settle = Ms(2);
  config.flap.links = 2;
  config.gray.links = 1;
  config.outage.enabled = true;
  return config;
}

TEST(ChaosGeneratorTest, SameSeedSameSchedule) {
  Topology topo = RandomHostedTopology(3, 8, 5, 1);
  ChaosSchedule a = chaos::GenerateSchedule(topo, SmallConfig(17));
  ChaosSchedule b = chaos::GenerateSchedule(topo, SmallConfig(17));
  ASSERT_FALSE(a.empty());
  EXPECT_EQ(a.actions, b.actions);

  ChaosSchedule c = chaos::GenerateSchedule(topo, SmallConfig(18));
  EXPECT_NE(a.actions, c.actions);
}

TEST(ChaosGeneratorTest, SchedulesAreWellFormed) {
  Topology topo = RandomHostedTopology(9, 10, 7, 1);
  for (uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    const ChaosConfig config = SmallConfig(seed);
    ChaosSchedule sched = chaos::GenerateSchedule(topo, config);
    ASSERT_FALSE(sched.empty()) << "seed " << seed;

    // Time-sorted, nothing beyond the horizon.
    for (size_t i = 1; i < sched.actions.size(); ++i) {
      EXPECT_LE(sched.actions[i - 1].at, sched.actions[i].at);
    }
    EXPECT_LE(sched.actions.back().at, config.horizon);

    // Every touched link's final transition is the simultaneous restore at
    // `horizon`, preceded by a forced down at `horizon - settle`.
    for (LinkIndex li : sched.TouchedLinks()) {
      const ChaosAction* last_transition = nullptr;
      bool forced_down = false;
      for (const ChaosAction& a : sched.actions) {
        if (a.link != li) {
          continue;
        }
        if (a.kind == ChaosAction::Kind::kLinkDown ||
            a.kind == ChaosAction::Kind::kLinkUp) {
          last_transition = &a;
          forced_down |= a.kind == ChaosAction::Kind::kLinkDown &&
                         a.at == config.horizon - config.settle;
        }
      }
      ASSERT_NE(last_transition, nullptr);
      EXPECT_EQ(last_transition->kind, ChaosAction::Kind::kLinkUp);
      EXPECT_EQ(last_transition->at, config.horizon);
      EXPECT_TRUE(forced_down) << "link " << li << " never forced down before restore";
    }

    // Every gray link is cleared before the restore, and only inter-switch
    // links are touched (host uplinks must stay healthy).
    for (LinkIndex li : sched.GrayLinks()) {
      bool cleared = false;
      for (const ChaosAction& a : sched.actions) {
        cleared |= a.link == li && a.kind == ChaosAction::Kind::kGrayClear;
      }
      EXPECT_TRUE(cleared) << "gray link " << li << " never cleared";
    }
    for (LinkIndex li : sched.TouchedLinks()) {
      const Link& l = topo.link_at(li);
      EXPECT_TRUE(l.a.node.is_switch() && l.b.node.is_switch());
    }
  }
}

TEST(ChaosScheduleTest, SerializeParseRoundTrip) {
  Topology topo = RandomHostedTopology(5, 8, 6, 1);
  ChaosSchedule sched = chaos::GenerateSchedule(topo, SmallConfig(23));
  ASSERT_FALSE(sched.empty());

  const std::string text = chaos::SerializeSchedule(sched, "unit test");
  EXPECT_NE(text.find("dumbnet-explore schedule v1"), std::string::npos);
  EXPECT_NE(text.find("dumbnet-chaos schedule v1"), std::string::npos);
  EXPECT_NE(text.find("unit test"), std::string::npos);

  auto parsed = chaos::ParseSchedule(text);
  ASSERT_TRUE(parsed.ok()) << parsed.error().ToString();
  EXPECT_EQ(parsed.value().actions, sched.actions);
}

TEST(ChaosScheduleTest, ParseRejectsMalformedInput) {
  // Gray loss above 100 % is nonsense.
  EXPECT_FALSE(chaos::ParseSchedule("# chaos 1000 gray 3 2000000\n").ok());
  // Actions must be time-sorted.
  EXPECT_FALSE(
      chaos::ParseSchedule("# chaos 2000 down 1\n# chaos 1000 up 1\n").ok());
  // Truncated action line.
  EXPECT_FALSE(chaos::ParseSchedule("# chaos 1000 down\n").ok());
}

TEST(ChaosRunTest, FlapScheduleConvergesOnPaperTestbed) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  SimulatedFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(25);

  ChaosConfig config = SmallConfig(7);
  config.gray.links = 0;  // flap-only
  config.outage.enabled = false;
  ChaosSchedule sched = chaos::GenerateSchedule(fabric.topo(), config);
  ASSERT_FALSE(sched.empty());
  const std::vector<LinkIndex> touched = sched.TouchedLinks();

  chaos::RunSchedule(fabric, sched);

  // At quiescence after the simultaneous restore, every cache must agree with
  // the (all-up) ground truth about every churned link.
  EXPECT_TRUE(chaos::CheckConvergence(fabric, touched).empty());
  EXPECT_EQ(chaos::CountStaleEntries(fabric, touched), 0u);
}

TEST(ChaosInterceptorTest, DelayAndDropAreCountedPerHost) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  auto spines = tb.value().spines;
  SimulatedFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(25);

  // Host 0 drops every fabric copy and defers every gossip copy; the deferred
  // copies still land, so host 0 stays convergent via gossip alone.
  fabric.agent(0).SetNotificationInterceptor(
      [](const LinkEventPayload&, bool from_fabric) -> TimeNs {
        return from_fabric ? HostAgent::kDropNotification : Us(50);
      });

  const LinkIndex victim = fabric.topo().LinkAtPort(spines[0], 1);
  ASSERT_NE(victim, kInvalidLink);
  fabric.topo().SetLinkUp(victim, false);
  fabric.RunUntil(fabric.Now() + Ms(20));
  fabric.topo().SetLinkUp(victim, true);
  fabric.Run();

  EXPECT_GT(fabric.agent(0).stats().notifications_dropped, 0u);
  EXPECT_GT(fabric.agent(0).stats().notifications_delayed, 0u);
  EXPECT_EQ(fabric.agent(1).stats().notifications_dropped, 0u);
  EXPECT_TRUE(chaos::CheckConvergence(fabric, {victim}).empty());
}

// Two runs with the same gray seed drop the identical number of packets; the
// drop stream is a pure function of (gray_seed, link, direction, packet id).
TEST(ChaosGrayTest, GrayLossIsSeedDeterministic) {
  auto run = [](uint64_t gray_seed) -> uint64_t {
    LeafSpineConfig cfg;
    cfg.num_spine = 2;
    cfg.num_leaf = 2;
    cfg.hosts_per_leaf = 4;
    auto ls = MakeLeafSpine(cfg);
    NetworkConfig net_config;
    net_config.gray_seed = gray_seed;
    SimulatedFabric fabric(std::move(ls.value().topo), HostAgentConfig(),
                           DumbSwitchConfig(), net_config);
    fabric.BringUpAdopted(0);

    // Every inter-switch link turns 30 % lossy for 25 ms.
    ChaosSchedule sched;
    for (LinkIndex li = 0; li < fabric.topo().link_count(); ++li) {
      const Link& l = fabric.topo().link_at(li);
      if (!l.a.node.is_switch() || !l.b.node.is_switch()) {
        continue;
      }
      sched.actions.push_back({Ms(1), ChaosAction::Kind::kGraySet, li, 300000});
    }
    const size_t grayed = sched.actions.size();
    for (size_t i = 0; i < grayed; ++i) {
      sched.actions.push_back(
          {Ms(26), ChaosAction::Kind::kGrayClear, sched.actions[i].link, 0});
    }

    chaos::RunHooks hooks;
    Rng traffic(99);
    uint64_t flow = 1;
    hooks.on_boundary = [&](TimeNs) {
      for (int i = 0; i < 4; ++i) {
        const uint32_t src = static_cast<uint32_t>(traffic.UniformInt(4));
        const uint32_t dst = 4 + static_cast<uint32_t>(traffic.UniformInt(4));
        (void)fabric.agent(src).Send(fabric.agent(dst).mac(), flow++, DataPayload{});
      }
    };
    chaos::RunSchedule(fabric, sched, hooks);
    return fabric.net().stats().dropped_gray;
  };

  const uint64_t first = run(0xFEEDULL);
  const uint64_t second = run(0xFEEDULL);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(first, second);
}

TEST(ChaosMinimizeTest, ReducesToSingleCulpritAction) {
  ChaosSchedule failing;
  for (int i = 0; i < 12; ++i) {
    failing.actions.push_back({Ms(i + 1),
                               i % 2 == 0 ? ChaosAction::Kind::kLinkDown
                                          : ChaosAction::Kind::kLinkUp,
                               static_cast<LinkIndex>(i), 0});
  }
  // The "bug" needs only the action touching link 7.
  auto still_fails = [](const ChaosSchedule& cand) {
    for (const ChaosAction& a : cand.actions) {
      if (a.link == 7) {
        return true;
      }
    }
    return false;
  };
  ChaosSchedule minimized = chaos::MinimizeSchedule(failing, still_fails);
  ASSERT_EQ(minimized.actions.size(), 1u);
  EXPECT_EQ(minimized.actions[0].link, 7u);
}

TEST(ChaosMinimizeTest, ResultIsFailingSubsequence) {
  ChaosSchedule failing;
  for (int i = 0; i < 10; ++i) {
    failing.actions.push_back(
        {Ms(i + 1), ChaosAction::Kind::kLinkDown, static_cast<LinkIndex>(i), 0});
  }
  // Fails iff BOTH link 2 and link 8 are present (a two-action interaction).
  auto still_fails = [](const ChaosSchedule& cand) {
    bool two = false, eight = false;
    for (const ChaosAction& a : cand.actions) {
      two |= a.link == 2;
      eight |= a.link == 8;
    }
    return two && eight;
  };
  ChaosSchedule minimized = chaos::MinimizeSchedule(failing, still_fails);
  EXPECT_TRUE(still_fails(minimized));
  EXPECT_EQ(minimized.actions.size(), 2u);
  // Subsequence check: every surviving action appears in the original order.
  size_t pos = 0;
  for (const ChaosAction& a : minimized.actions) {
    while (pos < failing.actions.size() && !(failing.actions[pos] == a)) {
      ++pos;
    }
    EXPECT_LT(pos, failing.actions.size());
  }
}

}  // namespace
}  // namespace dumbnet
