// End-to-end control-plane tests: controller bring-up (discovery + bootstrap),
// path queries answered with path graphs, host-to-host data delivery, and the
// two-stage failure handling pipeline of Section 4.2.
#include "src/ctrl/controller.h"

#include <gtest/gtest.h>

#include <map>

#include "src/analysis/invariants.h"
#include "src/topo/generators.h"
#include "tests/test_fabric.h"

namespace dumbnet {
namespace {

DiscoveryConfig FastDiscovery(uint8_t max_ports) {
  DiscoveryConfig config;
  config.max_ports = max_ports;
  config.pm_send_cost = Us(1);
  config.pm_recv_cost = Us(1);
  config.probe_timeout = Ms(20);
  return config;
}

class ControllerTest : public ::testing::Test {
 protected:
  void BringUp() {
    auto testbed = MakePaperTestbed();
    ASSERT_TRUE(testbed.ok());
    spines_ = testbed.value().spines;
    leaves_ = testbed.value().leaves;
    fabric_ = std::make_unique<TestFabric>(std::move(testbed.value().topo));
    controller_ =
        &fabric_->AddController(kControllerHost, ControllerConfig(), FastDiscovery(16));
    bool ready = false;
    controller_->Start([&] { ready = true; });
    fabric_->Run();
    ASSERT_TRUE(ready);
  }

  static constexpr uint32_t kControllerHost = 25;

  std::unique_ptr<TestFabric> fabric_;
  ControllerService* controller_ = nullptr;
  std::vector<uint32_t> spines_;
  std::vector<uint32_t> leaves_;
};

TEST_F(ControllerTest, BootstrapsEveryHost) {
  BringUp();
  for (uint32_t h = 0; h < fabric_->host_count(); ++h) {
    EXPECT_TRUE(fabric_->agent(h).bootstrapped()) << "host " << h;
  }
  // 26 remote bootstraps (the controller itself is local).
  EXPECT_EQ(controller_->stats().bootstraps_sent, 26u);
}

TEST_F(ControllerTest, ColdSendTriggersQueryThenDelivers) {
  BringUp();
  HostAgent& src = fabric_->agent(0);   // leaf 0
  HostAgent& dst = fabric_->agent(12);  // leaf 2

  int received = 0;
  dst.SetDataHandler([&](const Packet& pkt, const DataPayload& data) {
    EXPECT_EQ(pkt.eth.src_mac, src.mac());
    EXPECT_EQ(data.flow_id, 77u);
    ++received;
  });
  ASSERT_TRUE(src.Send(dst.mac(), 77, DataPayload{77, 1, 0, false, 1000}).ok());
  fabric_->Run();

  EXPECT_EQ(received, 1);
  EXPECT_GE(src.stats().path_requests, 1u);
  EXPECT_TRUE(src.path_table().Contains(dst.mac()));
}

TEST_F(ControllerTest, WarmSendsSkipController) {
  BringUp();
  HostAgent& src = fabric_->agent(0);
  HostAgent& dst = fabric_->agent(12);
  int received = 0;
  dst.SetDataHandler([&](const Packet&, const DataPayload&) { ++received; });

  ASSERT_TRUE(src.Send(dst.mac(), 1, DataPayload{}).ok());
  fabric_->Run();
  uint64_t queries_after_first = controller_->stats().queries_served;

  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(src.Send(dst.mac(), 1, DataPayload{}).ok());
  }
  fabric_->Run();
  EXPECT_EQ(received, 11);
  EXPECT_EQ(controller_->stats().queries_served, queries_after_first);
}

TEST_F(ControllerTest, PathGraphGivesMultiplePathsAcrossSpines) {
  BringUp();
  HostAgent& src = fabric_->agent(0);
  HostAgent& dst = fabric_->agent(12);
  ASSERT_TRUE(src.Send(dst.mac(), 1, DataPayload{}).ok());
  fabric_->Run();

  const PathTableEntry* entry = src.path_table().Find(dst.mac());
  ASSERT_NE(entry, nullptr);
  // Two spines => at least two minimal (leaf-spine-leaf) paths among the cached k.
  EXPECT_GE(entry->paths.size(), 2u);
  size_t minimal = 0;
  for (const CachedRoute& route : entry->paths) {
    EXPECT_GE(route.uid_path.size(), 3u);
    minimal += route.uid_path.size() == 3u ? 1u : 0u;
  }
  EXPECT_EQ(minimal, 2u);
}

TEST_F(ControllerTest, StageOneNotificationReachesHostsBeforePatch) {
  BringUp();
  TimeNs fail_notify = 0;
  TimeNs patch_notify = 0;
  HostAgent& observer = fabric_->agent(20);  // leaf 4
  observer.SetLinkEventHook([&](const LinkEventPayload& ev, bool) {
    if (!ev.up && fail_notify == 0) {
      fail_notify = observer.sim().Now();
    }
  });
  observer.SetPatchHook([&](const TopologyPatchPayload&) {
    if (patch_notify == 0) {
      patch_notify = observer.sim().Now();
    }
  });

  // Cut spine0 <-> leaf0.
  LinkIndex li = fabric_->topo().LinkAtPort(spines_[0], 1);
  ASSERT_NE(li, kInvalidLink);
  TimeNs cut_at = fabric_->Now();
  fabric_->topo().SetLinkUp(li, false);
  fabric_->Run();

  ASSERT_GT(fail_notify, 0) << "stage-1 notification never arrived";
  ASSERT_GT(patch_notify, 0) << "stage-2 patch never arrived";
  EXPECT_LT(fail_notify, patch_notify);
  // Both within tens of milliseconds of the cut.
  EXPECT_LT(patch_notify - cut_at, Ms(100));
}

TEST_F(ControllerTest, FailoverReroutesTrafficAroundDeadSpine) {
  BringUp();
  HostAgent& src = fabric_->agent(0);   // leaf 0
  HostAgent& dst = fabric_->agent(12);  // leaf 2
  int received = 0;
  dst.SetDataHandler([&](const Packet&, const DataPayload&) { ++received; });

  ASSERT_TRUE(src.Send(dst.mac(), 5, DataPayload{}).ok());
  fabric_->Run();
  ASSERT_EQ(received, 1);

  // Cut BOTH links that leaf0 has to spine 0; all surviving paths go via spine 1.
  LinkIndex l0 = fabric_->topo().LinkAtPort(leaves_[0], 1);  // leaf0 -> spine0
  ASSERT_NE(l0, kInvalidLink);
  fabric_->topo().SetLinkUp(l0, false);
  fabric_->Run();

  // Every flow must still get through, whatever path the flow had been bound to.
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(src.Send(dst.mac(), 100u + static_cast<uint64_t>(i), DataPayload{}).ok());
  }
  fabric_->Run();
  EXPECT_EQ(received, 9);

  // And no cached route may cross the dead edge.
  const PathTableEntry* entry = src.path_table().Find(dst.mac());
  ASSERT_NE(entry, nullptr);
  ASSERT_FALSE(entry->paths.empty());
  uint64_t leaf0_uid = fabric_->topo().switch_at(leaves_[0]).uid;
  uint64_t spine0_uid = fabric_->topo().switch_at(spines_[0]).uid;
  for (const CachedRoute& route : entry->paths) {
    EXPECT_FALSE(route.UsesEdge(leaf0_uid, spine0_uid));
  }
}

TEST_F(ControllerTest, LinkRestorationFlowsBackViaPatch) {
  BringUp();
  LinkIndex li = fabric_->topo().LinkAtPort(spines_[0], 1);
  fabric_->topo().SetLinkUp(li, false);
  fabric_->Run();

  int restored_patches = 0;
  fabric_->agent(10).SetPatchHook([&](const TopologyPatchPayload& patch) {
    if (patch.added != nullptr && !patch.added->empty()) {
      ++restored_patches;
    }
  });
  fabric_->topo().SetLinkUp(li, true);
  fabric_->Run();
  EXPECT_GE(restored_patches, 1);
  EXPECT_GE(controller_->stats().reprobes, 1u);
}

TEST_F(ControllerTest, ReplicatedLogMirrorsTopologyEvents) {
  BringUp();
  ReplicatedLog log(&fabric_->sim(), ReplicatedLogConfig{3, Us(200)});
  controller_->AttachLog(&log);

  LinkIndex li = fabric_->topo().LinkAtPort(spines_[0], 1);
  fabric_->topo().SetLinkUp(li, false);
  fabric_->Run();

  EXPECT_GE(log.committed_index(), 1u);
  // A standby applying replica 1's log sees the link down.
  TopoDb standby = controller_->db();
  ReplicatedLog::ApplyTo(log.ReplicaLog(1), standby);
  uint64_t spine_uid = fabric_->topo().switch_at(spines_[0]).uid;
  auto link = standby.LinkAt(spine_uid, 1);
  ASSERT_TRUE(link.ok());
}

TEST_F(ControllerTest, PrecomputePathGraphsServesEveryKnownDestination) {
  BringUp();
  HostAgent& src = fabric_->agent(0);
  std::vector<uint64_t> dst_macs;
  for (uint32_t h = 5; h < 15; ++h) {
    dst_macs.push_back(fabric_->agent(h).mac());
  }
  dst_macs.push_back(0xdeadbeefULL);  // unknown MAC: silently skipped
  auto graphs = controller_->PrecomputePathGraphs(src.mac(), dst_macs);
  ASSERT_TRUE(graphs.ok());
  EXPECT_EQ(graphs.value().size(), 10u);
  for (const WirePathGraph& wg : graphs.value()) {
    EXPECT_TRUE(AuditWirePathGraph(wg).ok());
    ASSERT_FALSE(wg.primary.empty());
    EXPECT_EQ(wg.primary.front(), wg.src_uid);
    EXPECT_EQ(wg.primary.back(), wg.dst_uid);
  }
  // Unknown source: hard error.
  EXPECT_FALSE(controller_->PrecomputePathGraphs(0xdeadbeefULL, dst_macs).ok());
}

TEST_F(ControllerTest, SsspCacheHitsOnRepeatAndInvalidatesOnLinkEvent) {
  BringUp();
  HostAgent& src = fabric_->agent(0);
  std::vector<uint64_t> dst_macs = {fabric_->agent(12).mac(), fabric_->agent(20).mac()};

  uint64_t misses0 = controller_->sssp_cache_stats().misses;
  ASSERT_TRUE(controller_->PrecomputePathGraphs(src.mac(), dst_macs).ok());
  EXPECT_EQ(controller_->sssp_cache_stats().misses, misses0 + 1);

  // Same source, unchanged topology: the tree is reused.
  uint64_t hits0 = controller_->sssp_cache_stats().hits;
  ASSERT_TRUE(controller_->PrecomputePathGraphs(src.mac(), dst_macs).ok());
  EXPECT_EQ(controller_->sssp_cache_stats().hits, hits0 + 1);
  EXPECT_EQ(controller_->sssp_cache_stats().misses, misses0 + 1);

  // A link event bumps the db version: the next precompute must recompute, and
  // its output must avoid the dead link.
  LinkIndex li = fabric_->topo().LinkAtPort(spines_[0], 1);
  ASSERT_NE(li, kInvalidLink);
  fabric_->topo().SetLinkUp(li, false);
  fabric_->Run();
  auto graphs = controller_->PrecomputePathGraphs(src.mac(), dst_macs);
  ASSERT_TRUE(graphs.ok());
  EXPECT_EQ(controller_->sssp_cache_stats().misses, misses0 + 2);
  uint64_t spine_uid = fabric_->topo().switch_at(spines_[0]).uid;
  uint64_t leaf_uid = fabric_->topo().switch_at(leaves_[0]).uid;
  for (const WirePathGraph& wg : graphs.value()) {
    for (const WireLink& wl : wg.links) {
      EXPECT_FALSE((wl.uid_a == spine_uid && wl.uid_b == leaf_uid) ||
                   (wl.uid_a == leaf_uid && wl.uid_b == spine_uid))
          << "path graph still uses the dead link";
    }
  }
}

// Query coalescing: a controller slow enough (1 ms per query) that a host's
// retries pile up behind a backlog of other queries.
class QueryCoalescingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto testbed = MakePaperTestbed();
    ASSERT_TRUE(testbed.ok());
    fabric_ = std::make_unique<TestFabric>(std::move(testbed.value().topo));
    ControllerConfig config;
    config.query_cost = Ms(1);
    fabric_->BringUpAdopted(kControllerHost, config);  // runs to quiescence
    controller_ = &fabric_->controller();
    dst_ = fabric_->agent(12).mac();  // leaf 2
    for (uint32_t h : {0u, 5u}) {     // leaves 0 and 1
      fabric_->agent(h).SetControlHandler([this, h](const Packet& pkt) {
        const auto* resp = pkt.As<PathResponsePayload>();
        if (resp != nullptr && resp->dst_mac == dst_) {
          responses_[h].push_back(resp->graph);
        }
        return false;  // the agent still installs the response
      });
    }
  }

  void Ask(uint32_t host, uint64_t dst_mac, uint64_t attempt) {
    HostAgent& agent = fabric_->agent(host);
    ASSERT_TRUE(agent.SendToController(PathRequestPayload{agent.mac(), dst_mac, attempt}).ok());
  }

  // Three unrelated queries from host 1, so whatever follows waits ~3 ms.
  void QueueBacklog() {
    for (uint32_t h : {18u, 19u, 20u}) {
      Ask(1, fabric_->agent(h).mac(), 0);
    }
  }

  static constexpr uint32_t kControllerHost = 25;

  std::unique_ptr<TestFabric> fabric_;
  ControllerService* controller_ = nullptr;
  uint64_t dst_ = 0;
  std::map<uint32_t, std::vector<std::shared_ptr<const WirePathGraph>>> responses_;
};

TEST_F(QueryCoalescingTest, QueuedRetriesAreServedOnceWithTheLatestAttempt) {
  const ControllerStats before = controller_->stats();
  QueueBacklog();
  constexpr uint64_t kRetries = 4;
  for (uint64_t attempt = 0; attempt <= kRetries; ++attempt) {
    Ask(0, dst_, attempt);
  }
  fabric_->Run();

  EXPECT_EQ(controller_->stats().queries_coalesced - before.queries_coalesced, kRetries);
  EXPECT_EQ(controller_->stats().queries_served - before.queries_served, 3u + 1u);
  ASSERT_EQ(responses_[0].size(), 1u);
  ASSERT_NE(responses_[0][0], nullptr);

  // The served graph is memoized per (switch pair, attempt): a lone query with
  // the highest attempt gets the very same object, attempt 0 a different one.
  Ask(0, dst_, kRetries);
  fabric_->Run();
  ASSERT_EQ(responses_[0].size(), 2u);
  EXPECT_EQ(responses_[0][1], responses_[0][0]);
  Ask(0, dst_, 0);
  fabric_->Run();
  ASSERT_EQ(responses_[0].size(), 3u);
  EXPECT_NE(responses_[0][2], responses_[0][0]);
  EXPECT_EQ(controller_->stats().queries_coalesced - before.queries_coalesced, kRetries);
}

TEST_F(QueryCoalescingTest, RetryAfterTheAnswerIsServedAgain) {
  QueueBacklog();
  Ask(0, dst_, 0);
  fabric_->Run();
  ASSERT_EQ(responses_[0].size(), 1u);
  const ControllerStats before = controller_->stats();

  Ask(0, dst_, 1);  // the earlier copy is already answered: nothing to merge into
  fabric_->Run();
  EXPECT_EQ(responses_[0].size(), 2u);
  EXPECT_EQ(controller_->stats().queries_served, before.queries_served + 1);
  EXPECT_EQ(controller_->stats().queries_coalesced, before.queries_coalesced);
}

TEST_F(QueryCoalescingTest, DifferentRequestersAreNotMerged) {
  const ControllerStats before = controller_->stats();
  QueueBacklog();
  Ask(0, dst_, 0);
  Ask(5, dst_, 0);
  fabric_->Run();
  EXPECT_EQ(controller_->stats().queries_coalesced, before.queries_coalesced);
  EXPECT_EQ(controller_->stats().queries_served - before.queries_served, 3u + 2u);
  EXPECT_EQ(responses_[0].size(), 1u);
  EXPECT_EQ(responses_[5].size(), 1u);
}

}  // namespace
}  // namespace dumbnet
