// Tests for the sharded simulator stack: the SPSC cross-shard channel
// (src/sim/spsc.h), the topology partitioner (src/net/shard_plan.h), the
// conservative-window coordinator (src/sim/shard_set.h), and — the headline
// property — shard-count invariance at the fabric level: discovery plus a
// double-spine failure converge to the same control-plane state whether the
// fabric runs on 1 shard or 4, and a fixed shard count is bit-identical
// across repeats.
#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/core/fabric.h"
#include "src/net/shard_plan.h"
#include "src/sim/shard_set.h"
#include "src/sim/spsc.h"
#include "src/topo/generators.h"
#include "src/topo/serialize.h"

namespace dumbnet {
namespace {

// --- SpscChannel -------------------------------------------------------------

TEST(SpscChannelTest, FifoWithinRing) {
  SpscChannel<int> ch(8);
  for (int i = 0; i < 5; ++i) {
    ch.Push(i);
  }
  std::vector<int> out;
  ch.DrainTo(out);
  ASSERT_EQ(out.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i);
  }
  EXPECT_TRUE(ch.EmptyUnsynchronized());
}

TEST(SpscChannelTest, OverflowSpillsAndPreservesFifo) {
  SpscChannel<int> ch(4);  // rounds to a power of two; small on purpose
  const int n = 100;       // far past capacity: most pushes spill
  for (int i = 0; i < n; ++i) {
    ch.Push(i);
  }
  std::vector<int> out;
  ch.DrainTo(out);
  ASSERT_EQ(out.size(), static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(out[static_cast<size_t>(i)], i) << "spill broke FIFO at " << i;
  }
  EXPECT_TRUE(ch.EmptyUnsynchronized());
  // The sticky spill flag resets at drain: the ring is usable again.
  ch.Push(7);
  out.clear();
  ch.DrainTo(out);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 7);
}

// --- ShardPlan ---------------------------------------------------------------

TEST(ShardPlanTest, PartitionsLeafSpineWithHostsFollowingUplinks) {
  auto testbed = MakePaperTestbed();
  ASSERT_TRUE(testbed.ok());
  const Topology& topo = testbed.value().topo;
  ShardPlan plan = ShardPlan::Build(topo, 4);
  EXPECT_EQ(plan.shard_count, 4u);
  ASSERT_EQ(plan.switch_shard.size(), topo.switch_count());
  ASSERT_EQ(plan.host_shard.size(), topo.host_count());
  // Hosts inherit the shard of the switch they attach to, so the host-uplink
  // hop never crosses a shard boundary.
  for (uint32_t h = 0; h < topo.host_count(); ++h) {
    auto up = topo.HostUplink(h);
    ASSERT_TRUE(up.ok());
    EXPECT_EQ(plan.host_shard[h], plan.switch_shard[up.value().node.index]);
  }
  // Contiguous blocks: shard ids are non-decreasing in switch index.
  for (size_t i = 1; i < plan.switch_shard.size(); ++i) {
    EXPECT_LE(plan.switch_shard[i - 1], plan.switch_shard[i]);
  }
  // The testbed wires leaves to spines, so a 4-way split must cut links; the
  // lookahead is the minimum propagation over those cut links.
  EXPECT_GT(plan.cross_shard_links, 0u);
  TimeNs min_cross = ShardPlan::kNoCrossLinks;
  for (uint32_t li = 0; li < topo.link_count(); ++li) {
    const Link& l = topo.link_at(li);
    if (l.detached || !l.a.node.is_switch() || !l.b.node.is_switch()) {
      continue;
    }
    if (plan.switch_shard[l.a.node.index] != plan.switch_shard[l.b.node.index] &&
        l.propagation_ns < min_cross) {
      min_cross = l.propagation_ns;
    }
  }
  EXPECT_EQ(plan.lookahead, min_cross);
}

TEST(ShardPlanTest, ClampsShardCountAndHandlesSingleShard) {
  Topology topo;
  const uint32_t sw = topo.AddSwitch(4);
  const uint32_t h = topo.AddHost();
  ASSERT_TRUE(topo.AttachHost(h, sw, 1).ok());
  ShardPlan plan = ShardPlan::Build(topo, 8);
  EXPECT_EQ(plan.shard_count, 1u) << "one switch cannot split 8 ways";
  EXPECT_EQ(plan.cross_shard_links, 0u);
  EXPECT_EQ(plan.lookahead, ShardPlan::kNoCrossLinks);
}

// Characterization of ShardPlan on fat-trees: the contiguous-block partitioner
// has no pod concept. MakeFatTree(k=4) lays out switches core-first (4 cores,
// then 4 pods of 2 aggregation + 2 edge switches), so at 2 shards the block
// boundary happens to coincide with a pod boundary (only core->aggregation
// links are cut), but at 4 shards one pod is torn across shards. This test
// documents the current cut counts; a genuinely pod-aware planner would keep
// cut_intra_pod at zero for every shard count that divides the pod count and
// should update these expectations alongside its implementation.
TEST(ShardPlanTest, FatTreeSplitIsNotPodAwareCharacterization) {
  FatTreeConfig config;
  config.k = 4;
  auto ft = MakeFatTree(config);
  ASSERT_TRUE(ft.ok());
  const Topology& topo = ft.value().topo;
  ASSERT_EQ(topo.switch_count(), 20u);  // 4 core + 4 pods x (2 agg + 2 edge)

  // Pod of a switch: cores are pod-less; pod switches follow the generator's
  // layout (aggregation then edge, interleaved per pod).
  auto pod_of = [&](uint32_t sw) -> int {
    for (size_t p = 0; p < 4; ++p) {
      for (uint32_t agg : {ft.value().aggregation[2 * p], ft.value().aggregation[2 * p + 1]}) {
        if (sw == agg) {
          return static_cast<int>(p);
        }
      }
      for (uint32_t edge : {ft.value().edge[2 * p], ft.value().edge[2 * p + 1]}) {
        if (sw == edge) {
          return static_cast<int>(p);
        }
      }
    }
    return -1;  // core
  };

  for (uint32_t shards : {2u, 4u}) {
    ShardPlan plan = ShardPlan::Build(topo, shards);
    ASSERT_EQ(plan.shard_count, shards);
    uint32_t cut_intra_pod = 0;    // both endpoints in the same pod, split anyway
    uint32_t cut_core_down = 0;    // core <-> aggregation cuts
    uint32_t cut_inter_pod = 0;    // distinct-pod cuts (none exist in a fat-tree)
    for (uint32_t li = 0; li < topo.link_count(); ++li) {
      const Link& l = topo.link_at(li);
      if (l.detached || !l.a.node.is_switch() || !l.b.node.is_switch()) {
        continue;
      }
      const uint32_t a = l.a.node.index, b = l.b.node.index;
      if (plan.switch_shard[a] == plan.switch_shard[b]) {
        continue;
      }
      const int pa = pod_of(a), pb = pod_of(b);
      if (pa == -1 || pb == -1) {
        ++cut_core_down;
      } else if (pa == pb) {
        ++cut_intra_pod;
      } else {
        ++cut_inter_pod;
      }
    }
    EXPECT_EQ(cut_core_down + cut_intra_pod + cut_inter_pod, plan.cross_shard_links);
    EXPECT_EQ(cut_inter_pod, 0u) << "fat-trees have no pod-to-pod wires";
    if (shards == 2) {
      // Split lands on a pod boundary: cores + pods 0-1 low, pods 2-3 high.
      // Only the high pods' 8 aggregation->core links cross.
      EXPECT_EQ(plan.cross_shard_links, 8u);
      EXPECT_EQ(cut_core_down, 8u);
      EXPECT_EQ(cut_intra_pod, 0u);
    } else {
      // One block boundary lands mid-pod: that pod's 4 internal agg<->edge
      // links are cut on top of 12 core downlinks.
      EXPECT_EQ(plan.cross_shard_links, 16u);
      EXPECT_EQ(cut_core_down, 12u);
      EXPECT_EQ(cut_intra_pod, 4u);
    }
  }
}

// --- ShardSet ----------------------------------------------------------------

TEST(ShardSetTest, CrossShardPostsDeliverInTimestampOrder) {
  ShardSetConfig config;
  config.shards = 2;
  config.lookahead = 100;
  config.threads = 1;
  ShardSet set(config);
  std::vector<int> order;
  // Seed shard 0 with an event that posts to shard 1 beyond the window, and a
  // local follow-up; shard 1 gets its own local event in between.
  set.Post(0, 0, 10, [&] {
    order.push_back(1);
    set.Post(0, 1, 10 + 100, [&] { order.push_back(3); });
  });
  set.Post(0, 1, 50, [&] { order.push_back(2); });
  const uint64_t ran = set.Run();
  EXPECT_EQ(ran, 3u);
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], 1);
  EXPECT_EQ(order[1], 2);
  EXPECT_EQ(order[2], 3);
  EXPECT_EQ(set.stats().cross_posts, 1u);
  EXPECT_GE(set.stats().windows, 1u);
  EXPECT_TRUE(set.Empty());
}

TEST(ShardSetTest, RunUntilAlignsEveryShardClock) {
  ShardSetConfig config;
  config.shards = 3;
  config.lookahead = 50;
  config.threads = 1;
  ShardSet set(config);
  int fired = 0;
  set.Post(0, 0, 30, [&] { ++fired; });
  set.Post(0, 2, 400, [&] { ++fired; });  // beyond the deadline: must not run
  set.RunUntil(200);
  EXPECT_EQ(fired, 1);
  for (uint32_t s = 0; s < set.shard_count(); ++s) {
    EXPECT_EQ(set.shard(s).Now(), 200) << "shard " << s;
  }
  set.Run();
  EXPECT_EQ(fired, 2);
}

TEST(ShardSetTest, ThreadedMatchesSequential) {
  // The same ping-pong workload on sequential (threads=1) and threaded
  // (threads = shard count) execution must produce identical event counts and
  // identical per-shard tallies. Handlers only touch their own shard's slot and
  // communicate via Post, so this is shard-clean by construction — the test
  // TSan runs to certify the worker/barrier protocol.
  auto run = [](uint32_t threads) {
    ShardSetConfig config;
    config.shards = 4;
    config.lookahead = 10;
    config.threads = threads;
    ShardSet set(config);
    std::vector<uint64_t> tally(4, 0);
    // Each shard ping-pongs with its neighbor: s -> (s+1)%4, 64 rounds.
    struct Hop {
      ShardSet* set;
      std::vector<uint64_t>* tally;
    } ctx{&set, &tally};
    std::function<void(uint32_t, TimeNs, int)> hop = [&](uint32_t s, TimeNs at,
                                                         int left) {
      (*ctx.tally)[s] += s + 1;
      if (left == 0) {
        return;
      }
      const uint32_t next = (s + 1) % 4;
      ctx.set->Post(s, next, at + 10, [&hop, next, at, left] {
        hop(next, at + 10, left - 1);
      });
    };
    for (uint32_t s = 0; s < 4; ++s) {
      set.Post(0, s, 1 + s, [&hop, s] { hop(s, 1 + s, 64); });
    }
    const uint64_t ran = set.Run();
    return std::pair<uint64_t, std::vector<uint64_t>>(ran, tally);
  };
  auto seq = run(1);
  auto thr = run(4);
  EXPECT_EQ(seq.first, thr.first);
  EXPECT_EQ(seq.second, thr.second);
}

// --- Fabric-level shard-count invariance -------------------------------------

uint64_t Fnv1a(const std::string& bytes, uint64_t h = 0xCBF29CE484222325ULL) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

// Digest of the converged control plane: the controller's discovered topology
// plus every host's mirror. Matches dumbnet-explore's terminal digest.
uint64_t StateDigest(SimulatedFabric& fabric) {
  uint64_t h = Fnv1a(SerializeTopology(fabric.controller().db().mirror()));
  for (uint32_t host = 0; host < static_cast<uint32_t>(fabric.host_count());
       ++host) {
    h = Fnv1a(SerializeTopology(fabric.agent(host).topo_cache().db().mirror()), h);
  }
  return h;
}

struct ScenarioResult {
  uint64_t digest = 0;
  uint64_t events = 0;
  TimeNs end_time = 0;
};

// Discovery bring-up followed by a double-spine failure and recovery — the
// scenario from ISSUE satellite 3. Runs on `shards` shards in sequential
// reference mode (DUMBNET_SHARD_THREADS is irrelevant here: threads=1 via env
// keeps the run deterministic even on multicore CI).
ScenarioResult RunScenario(uint32_t shards) {
  auto testbed = MakePaperTestbed();
  EXPECT_TRUE(testbed.ok());
  const uint32_t spine0 = testbed.value().spines[0];
  const uint32_t spine1 = testbed.value().spines[1];
  SimulatedFabric fabric(std::move(testbed.value().topo), HostAgentConfig(),
                         DumbSwitchConfig(), NetworkConfig(), shards);
  EXPECT_EQ(fabric.shard_count(), shards);

  ControllerConfig config;
  config.rng_seed = 7;
  DiscoveryConfig discovery;
  discovery.max_ports = 16;
  EXPECT_TRUE(fabric.BringUp(25, config, discovery));
  fabric.Run();

  // Both spine uplinks die at the same virtual instant; traffic re-requests
  // paths; then both revive.
  const LinkIndex l0 = fabric.topo().LinkAtPort(spine0, 1);
  const LinkIndex l1 = fabric.topo().LinkAtPort(spine1, 1);
  fabric.topo().SetLinkUp(l0, false);
  fabric.topo().SetLinkUp(l1, false);
  for (uint32_t h = 0; h < 8; ++h) {
    (void)fabric.agent(h).Send(fabric.agent(h + 10).mac(), 100 + h, DataPayload{});
  }
  fabric.Run();
  fabric.topo().SetLinkUp(l0, true);
  fabric.topo().SetLinkUp(l1, true);
  fabric.Run();

  ScenarioResult r;
  r.digest = StateDigest(fabric);
  r.events = fabric.executed_events();
  r.end_time = fabric.Now();
  return r;
}

class ShardInvarianceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Force the sequential reference execution so the scenario (driven from
    // the test thread between runs) is deterministic on any core count.
    setenv("DUMBNET_SHARD_THREADS", "1", 1);
  }
  void TearDown() override { unsetenv("DUMBNET_SHARD_THREADS"); }
};

TEST_F(ShardInvarianceTest, FourShardsConvergeToSingleShardState) {
  ScenarioResult one = RunScenario(1);
  ScenarioResult four = RunScenario(4);
  // The converged control plane is a join of LWW observations — independent of
  // how the simulation was partitioned.
  EXPECT_EQ(one.digest, four.digest);
}

TEST_F(ShardInvarianceTest, FixedShardCountIsBitIdentical) {
  ScenarioResult a = RunScenario(4);
  ScenarioResult b = RunScenario(4);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
}

// Churn golden trace: a chaos schedule must converge to the same control-plane
// digest on 1 and 4 shards, and a fixed shard count must replay bit-identically.
// This holds for gray-loss schedules too: the drop stream is keyed purely on
// (link, direction, packet id) — packet ids come from per-origin counters, so
// the set of eaten packets never depends on how the run was partitioned.
ScenarioResult RunChurnScenario(uint32_t shards, uint32_t gray_links) {
  auto testbed = MakePaperTestbed();
  EXPECT_TRUE(testbed.ok());
  SimulatedFabric fabric(std::move(testbed.value().topo), HostAgentConfig(),
                         DumbSwitchConfig(), NetworkConfig(), shards);
  fabric.BringUpAdopted(25);

  chaos::ChaosConfig config;
  config.seed = 11;
  config.horizon = Ms(40);
  config.flap.links = 3;
  config.gray.links = gray_links;
  config.outage.enabled = true;
  chaos::ChaosSchedule sched = chaos::GenerateSchedule(fabric.topo(), config);
  EXPECT_FALSE(sched.empty());
  chaos::RunSchedule(fabric, sched);
  EXPECT_TRUE(chaos::CheckConvergence(fabric, sched.TouchedLinks()).empty())
      << "churn did not converge on " << shards << " shard(s)";

  ScenarioResult r;
  r.digest = StateDigest(fabric);
  r.events = fabric.executed_events();
  r.end_time = fabric.Now();
  return r;
}

TEST_F(ShardInvarianceTest, ChurnScheduleDigestIsShardCountInvariant) {
  ScenarioResult one = RunChurnScenario(1, /*gray_links=*/0);
  ScenarioResult four = RunChurnScenario(4, /*gray_links=*/0);
  EXPECT_EQ(one.digest, four.digest);
}

TEST_F(ShardInvarianceTest, ChurnScheduleReplayIsBitIdentical) {
  ScenarioResult a = RunChurnScenario(4, /*gray_links=*/0);
  ScenarioResult b = RunChurnScenario(4, /*gray_links=*/0);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
}

// Gray loss used to be the one chaos ingredient that was legitimately
// shard-dependent (the drop stream consumed shard-local offer positions).
// With packet-id keying the whole schedule family is partition-stable.
TEST_F(ShardInvarianceTest, GrayLossScheduleDigestIsShardCountInvariant) {
  ScenarioResult one = RunChurnScenario(1, /*gray_links=*/2);
  ScenarioResult four = RunChurnScenario(4, /*gray_links=*/2);
  EXPECT_EQ(one.digest, four.digest);
}

TEST_F(ShardInvarianceTest, GrayLossScheduleReplayIsBitIdentical) {
  ScenarioResult a = RunChurnScenario(4, /*gray_links=*/2);
  ScenarioResult b = RunChurnScenario(4, /*gray_links=*/2);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
}

// A send from a host index the topology does not have is counted on the shard
// whose event made it, so two shards doing so at once never share a counter.
TEST(ShardedNetworkTest, BadHostSendsCountOnTheCallingShard) {
  FatTreeConfig config;
  config.k = 4;
  auto ft = MakeFatTree(config);
  ASSERT_TRUE(ft.ok());
  SimulatedFabric fabric(std::move(ft.value().topo), HostAgentConfig(), DumbSwitchConfig(),
                         NetworkConfig(), /*shards=*/2);
  ASSERT_EQ(fabric.shard_count(), 2u);
  const uint32_t bad = static_cast<uint32_t>(fabric.host_count()) + 7;
  constexpr int kSends = 5000;
  for (uint32_t s = 0; s < 2; ++s) {
    fabric.shard_set().Post(s, s, Us(1), [&fabric, bad] {
      for (int i = 0; i < kSends; ++i) {
        fabric.net().SendFromHost(bad, MakeEthernetPacket(1, 2, kEtherTypeDumbNet,
                                                          DataPayload{}));
      }
    });
  }
  fabric.Run();
  EXPECT_EQ(fabric.net().stats().dropped_unwired, 2u * kSends);
}

}  // namespace
}  // namespace dumbnet
