// End-to-end control-plane tests: controller bring-up (discovery + bootstrap),
// path queries answered with path graphs, host-to-host data delivery, and the
// two-stage failure handling pipeline of Section 4.2.
#include "src/ctrl/controller.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/analysis/invariants.h"
#include "src/ctrl/cpu_queue.h"
#include "src/sim/footprint.h"
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
  for (const PathGraphExport& wg : graphs.value()) {
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
  for (const PathGraphExport& wg : graphs.value()) {
    for (const WireLink& wl : wg.links) {
      EXPECT_FALSE((wl.uid_a == spine_uid && wl.uid_b == leaf_uid) ||
                   (wl.uid_a == leaf_uid && wl.uid_b == spine_uid))
          << "path graph still uses the dead link";
    }
  }
}

// The batch tests (here and in routing_test) compare the batch with other code
// in the same tree, so a change that moves the rng fork discipline in both
// places passes them. This pins PrecomputePathGraphs' output: a digest of every
// wire graph (primary, backup and links) from one host to every other host of a
// fat-tree k=4 adopted as ground truth. Re-record the value only with a change
// that means to move routes.
TEST_F(ControllerTest, PrecomputePathGraphsOutputIsPinned) {
  FatTreeConfig config;
  config.k = 4;
  auto fat_tree = MakeFatTree(config);
  ASSERT_TRUE(fat_tree.ok());
  TestFabric fabric(std::move(fat_tree.value().topo));
  fabric.BringUpAdopted(0);
  std::vector<uint64_t> dst_macs;
  for (uint32_t h = 1; h < fabric.host_count(); ++h) {
    dst_macs.push_back(fabric.agent(h).mac());
  }
  auto graphs = fabric.controller().PrecomputePathGraphs(fabric.agent(0).mac(), dst_macs);
  ASSERT_TRUE(graphs.ok());
  ASSERT_EQ(graphs.value().size(), dst_macs.size());
  uint64_t digest = 0;
  auto mix_uids = [&digest](const std::vector<uint64_t>& uids) {
    digest = footprint::FpKey(digest, uids.size());
    for (uint64_t uid : uids) {
      digest = footprint::FpKey(digest, uid);
    }
  };
  for (const PathGraphExport& wg : graphs.value()) {
    digest = footprint::FpKey(digest, wg.src_uid, wg.dst_uid);
    mix_uids(wg.primary);
    mix_uids(wg.backup);
    digest = footprint::FpKey(digest, wg.links.size());
    for (const WireLink& wl : wg.links) {
      digest = footprint::FpKey(footprint::FpKey(digest, wl.uid_a, wl.port_a), wl.uid_b,
                                wl.port_b);
    }
  }
  EXPECT_EQ(digest, 9013885041791141694ull);
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

// --- Two-level route cache: TopoCache first, one question per switch --------

// A fat-tree k=6 (three hosts per edge switch) with the controller on the last
// host. After bring-up a host's TopoCache holds the switches on its warm-up
// routes only, so some destination switches can be reached only by asking.
std::unique_ptr<TestFabric> MakeColdFatTree(HostAgentConfig agent_config = HostAgentConfig()) {
  FatTreeConfig config;
  config.k = 6;
  auto ft = MakeFatTree(config);
  EXPECT_TRUE(ft.ok());
  auto fabric = std::make_unique<TestFabric>(std::move(ft.value().topo), agent_config);
  fabric->BringUpAdopted(static_cast<uint32_t>(fabric->host_count() - 1));
  return fabric;
}

// Every host behind the first switch that `src`'s TopoCache does not hold.
std::vector<uint32_t> HostsBehindUncachedSwitch(TestFabric& fabric, uint32_t src) {
  const TopoCache& cache = fabric.agent(src).topo_cache();
  uint64_t target = 0;
  for (uint32_t h = 0; h < fabric.host_count() && target == 0; ++h) {
    const uint64_t sw = fabric.agent(h).self_location().switch_uid;
    if (!cache.db().IndexOf(sw).ok()) {
      target = sw;
    }
  }
  std::vector<uint32_t> hosts;
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    if (target != 0 && fabric.agent(h).self_location().switch_uid == target) {
      hosts.push_back(h);
    }
  }
  return hosts;
}

class RouteCacheTest : public ::testing::Test {
 protected:
  // One cached path per destination: when it dies the entry is starved, and
  // the route must come back from the TopoCache or from the controller.
  void SetUp() override {
    HostAgentConfig config;
    config.k_paths = 1;
    fabric_ = MakeColdFatTree(config);
  }

  std::unique_ptr<TestFabric> fabric_;
};

TEST_F(RouteCacheTest, MissOnACachedSwitchIsRoutedWithoutAsking) {
  HostAgent& src = fabric_->agent(0);
  // A remote host with no PathTable entry whose switch the TopoCache holds.
  uint32_t dst = 0;
  for (uint32_t h = 1; h < fabric_->host_count() && dst == 0; ++h) {
    const HostLocation& loc = fabric_->agent(h).self_location();
    if (loc.switch_uid != src.self_location().switch_uid &&
        src.topo_cache().db().IndexOf(loc.switch_uid).ok() &&
        !src.path_table().Contains(fabric_->agent(h).mac())) {
      dst = h;
    }
  }
  ASSERT_NE(dst, 0u);
  int received = 0;
  fabric_->agent(dst).SetDataHandler([&](const Packet&, const DataPayload&) { ++received; });
  const HostAgentStats before = src.stats();
  ASSERT_TRUE(src.Send(fabric_->agent(dst).mac(), 1, DataPayload{}).ok());
  EXPECT_EQ(src.parked_packets(), 0u);
  fabric_->Run();

  EXPECT_EQ(received, 1);
  EXPECT_EQ(src.stats().path_requests, before.path_requests);
  EXPECT_EQ(src.stats().data_blocked, before.data_blocked);
  EXPECT_TRUE(src.path_table().Contains(fabric_->agent(dst).mac()));
}

TEST_F(RouteCacheTest, OneQueryRoutesEveryHostBehindASwitch) {
  constexpr uint32_t kSrc = 3;
  HostAgent& src = fabric_->agent(kSrc);
  const std::vector<uint32_t> dsts = HostsBehindUncachedSwitch(*fabric_, kSrc);
  ASSERT_EQ(dsts.size(), 3u);
  std::vector<WireLink> answer_links;
  src.SetControlHandler([&](const Packet& pkt) {
    if (const auto* resp = pkt.As<PathResponsePayload>()) {
      answer_links = resp->graph->links;
    }
    return false;
  });
  int received = 0;
  for (uint32_t d : dsts) {
    fabric_->agent(d).SetDataHandler([&](const Packet&, const DataPayload&) { ++received; });
  }
  const HostAgentStats before = src.stats();
  const uint64_t served_before = fabric_->controller().stats().queries_served;
  const TimeNs start = fabric_->Now();
  for (uint32_t d : dsts) {
    ASSERT_TRUE(src.Send(fabric_->agent(d).mac(), 1, DataPayload{}).ok());
  }
  fabric_->Run();

  EXPECT_EQ(src.stats().path_requests - before.path_requests, 1u);
  EXPECT_EQ(fabric_->controller().stats().queries_served - served_before, 1u);
  EXPECT_EQ(received, 3);
  EXPECT_EQ(src.parked_packets(), 0u);
  ASSERT_FALSE(answer_links.empty());
  for (uint32_t d : dsts) {
    const uint64_t mac = fabric_->agent(d).mac();
    const PathTableEntry* entry = src.path_table().Find(mac);
    ASSERT_NE(entry, nullptr) << "host " << d;
    ASSERT_EQ(entry->paths.size(), 1u);
    // Every sibling's route is the merged graph's route to the shared switch,
    // ending at that sibling's own port.
    auto merged = src.topo_cache().ComputeRoutes(src.self_location().switch_uid, mac, 1);
    ASSERT_TRUE(merged.ok()) << "host " << d;
    EXPECT_EQ(entry->paths.front().uid_path, merged.value().front().uid_path) << "host " << d;
    EXPECT_EQ(entry->paths.front().tags, merged.value().front().tags) << "host " << d;
    EXPECT_EQ(entry->paths.front().tags.back(), fabric_->agent(d).self_location().port);
  }
  // Every link of the answer (detours and backup included) was merged and is up
  // in the cache, so it is there for all three when their route dies.
  for (const WireLink& l : answer_links) {
    EXPECT_TRUE(src.topo_cache().db().CompileTagsForUidPath({l.uid_a, l.uid_b}, 1).ok());
  }
  // The answer cancelled the retry timer: the run ended before it was due.
  EXPECT_TRUE(fabric_->sim().Empty());
  EXPECT_LT(fabric_->Now(), start + HostAgentConfig().request_timeout);
}

// A k=1 host whose one cached route loses a link recomputes the route from its
// TopoCache, which holds the path graph's backup and detour links: the flow
// keeps delivering and the controller hears no new query.
TEST_F(RouteCacheTest, CutRouteOfAKOneHostReroutesWithoutAsking) {
  HostAgent& src = fabric_->agent(0);
  // Half-way down the host list: a host in another pod.
  HostAgent& dst = fabric_->agent(static_cast<uint32_t>(fabric_->host_count() / 2));
  ASSERT_NE(dst.self_location().switch_uid, src.self_location().switch_uid);
  int received = 0;
  dst.SetDataHandler([&](const Packet&, const DataPayload&) { ++received; });
  ASSERT_TRUE(src.Send(dst.mac(), 1, DataPayload{}).ok());
  fabric_->Run();
  ASSERT_EQ(received, 1);

  const PathTableEntry* entry = src.path_table().Find(dst.mac());
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->paths.size(), 1u);
  const CachedRoute bound = entry->paths.front();
  ASSERT_GE(bound.uid_path.size(), 2u);
  Topology& topo = fabric_->topo();
  const LinkIndex cut =
      topo.LinkAtPort(topo.SwitchByUid(bound.uid_path[0]).value(), bound.tags.front());
  ASSERT_NE(cut, kInvalidLink);
  const uint64_t requests = src.stats().path_requests;
  topo.SetLinkUp(cut, false);
  fabric_->Run();

  entry = src.path_table().Find(dst.mac());
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->paths.size(), 1u);
  EXPECT_FALSE(entry->paths.front().UsesEdge(bound.uid_path[0], bound.uid_path[1]));
  ASSERT_TRUE(src.Send(dst.mac(), 1, DataPayload{}).ok());
  fabric_->Run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(src.stats().path_requests, requests);
}

TEST_F(RouteCacheTest, BareWarmUpJoinsTheOutstandingRequest) {
  HostAgent& src = fabric_->agent(0);
  const std::vector<uint32_t> dsts = HostsBehindUncachedSwitch(*fabric_, 0);
  ASSERT_EQ(dsts.size(), 3u);
  const uint64_t parked_mac = fabric_->agent(dsts[0]).mac();
  const uint64_t warm_mac = fabric_->agent(dsts[1]).mac();
  const HostAgentStats before = src.stats();
  ASSERT_TRUE(src.Send(parked_mac, 1, DataPayload{}).ok());
  src.RequestPath(warm_mac);  // no packet parked for this one
  EXPECT_EQ(src.parked_packets(), 1u);
  fabric_->Run();

  EXPECT_EQ(src.stats().path_requests - before.path_requests, 1u);
  EXPECT_EQ(src.stats().data_blocked - before.data_blocked, 1u);
  EXPECT_EQ(src.parked_packets(), 0u);
  EXPECT_NE(src.path_table().Find(parked_mac), nullptr);
  EXPECT_NE(src.path_table().Find(warm_mac), nullptr);
}

// What one host sees when the controller never answers: the arrival time and
// attempt of every request copy at the controller host.
struct UnansweredRun {
  std::vector<std::pair<TimeNs, uint64_t>> copies;
  uint64_t giveups = 0;
  size_t parked = 0;
  size_t waiters = 0;
};

UnansweredRun RunUnanswered() {
  std::unique_ptr<TestFabric> fabric = MakeColdFatTree();
  UnansweredRun run;
  HostAgent& src = fabric->agent(0);
  HostAgent& ctrl_host = fabric->agent(static_cast<uint32_t>(fabric->host_count() - 1));
  // The controller service stops answering: a recorder takes its place.
  ctrl_host.SetControlHandler([&](const Packet& pkt) {
    const auto* req = pkt.As<PathRequestPayload>();
    if (req == nullptr) {
      return false;
    }
    if (req->requester_mac == src.mac()) {
      run.copies.emplace_back(fabric->Now(), req->attempt);
    }
    return true;
  });
  const std::vector<uint32_t> dsts = HostsBehindUncachedSwitch(*fabric, 0);
  for (uint32_t d : dsts) {
    EXPECT_TRUE(src.Send(fabric->agent(d).mac(), 1, DataPayload{}).ok());
  }
  run.waiters = dsts.size();
  const uint64_t giveups_before = src.stats().path_giveups;
  fabric->Run();
  run.giveups = src.stats().path_giveups - giveups_before;
  run.parked = src.parked_packets();
  return run;
}

TEST(RouteCacheRetryTest, UnansweredRequestBacksOffThenGivesUpOnEveryWaiter) {
  const UnansweredRun run = RunUnanswered();
  const TimeNs timeout = HostAgentConfig().request_timeout;
  ASSERT_EQ(run.copies.size(), HostAgent::kMaxPathRequestRetries);
  for (size_t i = 0; i < run.copies.size(); ++i) {
    EXPECT_EQ(run.copies[i].second, i);
    if (i == 0) {
      continue;
    }
    // Every copy takes the same route, so arrival gaps are the send gaps:
    // timeout x 2^min(attempt, 4), plus jitter of under a quarter of that.
    const TimeNs backoff = timeout << std::min<size_t>(i - 1, 4);
    const TimeNs gap = run.copies[i].first - run.copies[i - 1].first;
    EXPECT_GE(gap, backoff) << "copy " << i;
    EXPECT_LE(gap, backoff + backoff / 4) << "copy " << i;
  }
  EXPECT_EQ(run.waiters, 3u);
  EXPECT_EQ(run.giveups, run.waiters);
  EXPECT_EQ(run.parked, 0u);

  // The jitter is a hash of (seed, host, key, attempt): a second run repeats
  // the schedule exactly.
  const UnansweredRun again = RunUnanswered();
  EXPECT_EQ(again.copies, run.copies);
}

// Routes built from the cache must be as good as the controller's: after an
// all-pairs warm-up on a fat-tree k=4, each installed primary is exactly as
// long as the controller's primary for its pair (stretch 1.0), and the routes
// the flows are bound to load no link more than 10% above the controller's
// primaries for the same pairs.
TEST(RouteQualityTest, CacheRoutesMatchControllerPrimaries) {
  FatTreeConfig config;
  config.k = 4;
  auto ft = MakeFatTree(config);
  ASSERT_TRUE(ft.ok());
  TestFabric fabric(std::move(ft.value().topo));
  const auto ctrl_host = static_cast<uint32_t>(fabric.host_count() - 1);
  fabric.BringUpAdopted(ctrl_host);

  std::set<std::pair<uint32_t, uint64_t>> answered;  // (src host, dst mac)
  for (uint32_t h = 0; h < ctrl_host; ++h) {
    fabric.agent(h).SetControlHandler([&answered, h](const Packet& pkt) {
      if (const auto* resp = pkt.As<PathResponsePayload>()) {
        answered.emplace(h, resp->dst_mac);
      }
      return false;
    });
  }
  for (uint32_t s = 0; s < ctrl_host; ++s) {
    for (uint32_t d = 0; d < fabric.host_count(); ++d) {
      if (d != s) {
        ASSERT_TRUE(fabric.agent(s).Send(fabric.agent(d).mac(), 1, DataPayload{}).ok());
      }
    }
  }
  fabric.Run();

  using Edge = std::pair<uint64_t, uint64_t>;
  std::map<Edge, int> host_load;
  std::map<Edge, int> ctrl_load;
  auto count = [](const std::vector<uint64_t>& path, std::map<Edge, int>& load) {
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      ++load[{path[i], path[i + 1]}];
    }
  };
  size_t local = 0;
  for (uint32_t s = 0; s < ctrl_host; ++s) {
    HostAgent& src = fabric.agent(s);
    std::vector<uint64_t> dst_macs;
    for (uint32_t d = 0; d < fabric.host_count(); ++d) {
      if (d != s) {
        dst_macs.push_back(fabric.agent(d).mac());
      }
    }
    auto graphs = fabric.controller().PrecomputePathGraphs(src.mac(), dst_macs);
    ASSERT_TRUE(graphs.ok());
    std::map<uint64_t, std::vector<uint64_t>> ctrl_primary;  // dst switch -> primary
    for (const PathGraphExport& wg : graphs.value()) {
      ctrl_primary[wg.dst_uid] = wg.primary;
    }
    for (uint64_t mac : dst_macs) {
      const PathTableEntry* entry = src.path_table().Find(mac);
      ASSERT_NE(entry, nullptr);
      ASSERT_FALSE(entry->paths.empty());
      const std::vector<uint64_t>& want = ctrl_primary.at(entry->dst.switch_uid);
      if (answered.count({s, mac}) == 0) {
        ++local;
        EXPECT_EQ(entry->paths.front().uid_path.size(), want.size())
            << "host " << s << " -> " << mac;
      }
      auto bound = entry->flow_binding.find(1);
      ASSERT_NE(bound, entry->flow_binding.end());
      ASSERT_LT(bound->second, entry->paths.size());
      count(entry->paths[bound->second].uid_path, host_load);
      count(want, ctrl_load);
    }
  }
  auto max_load = [](const std::map<Edge, int>& load) {
    int m = 0;
    for (const auto& [edge, n] : load) {
      m = std::max(m, n);
    }
    return m;
  };
  EXPECT_GT(local, 0u);
  std::printf("route quality: %zu cache-built routes, stretch 1.0; max routes per link "
              "%d (bound) vs %d (controller primaries)\n",
              local, max_load(host_load), max_load(ctrl_load));
  EXPECT_LE(max_load(host_load) * 10, max_load(ctrl_load) * 11);
}

// --- Bootstrap pump, acks and resends ----------------------------------------

// The bringup_ls4k fabric: 4 spines x 64 leaves x 64 hosts. A bootstrap there
// (~70 KB) takes longer to serialize than its 30 us CPU slot, so bootstraps
// sent at CPU pace overflowed the controller's uplink queue.
TEST(BootstrapPumpTest, EveryHostOfA4kLeafSpineIsBootstrapped) {
  LeafSpineConfig config;
  config.num_spine = 4;
  config.num_leaf = 64;
  config.hosts_per_leaf = 64;
  config.switch_ports = 72;
  auto ls = MakeLeafSpine(config);
  ASSERT_TRUE(ls.ok());
  TestFabric fabric(std::move(ls.value().topo));
  ASSERT_EQ(fabric.host_count(), 4096u);
  DiscoveryConfig discovery;
  discovery.max_ports = config.switch_ports;
  ASSERT_TRUE(fabric.BringUp(0, ControllerConfig(), discovery));
  size_t bootstrapped = 0;
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    if (fabric.agent(h).bootstrapped()) {
      ++bootstrapped;
    }
  }
  EXPECT_EQ(bootstrapped, fabric.host_count());
  EXPECT_EQ(fabric.net().stats().dropped_queue_full, 0u);
  EXPECT_TRUE(fabric.controller().unacked_hosts().empty());
  EXPECT_EQ(fabric.controller().stats().bootstrap_resends, 0u);
}

std::unique_ptr<TestFabric> MakeSmallLeafSpine() {
  LeafSpineConfig config;
  config.num_spine = 2;
  config.num_leaf = 3;
  config.hosts_per_leaf = 4;
  config.switch_ports = 8;
  auto ls = MakeLeafSpine(config);
  EXPECT_TRUE(ls.ok());
  return std::make_unique<TestFabric>(std::move(ls.value().topo));
}

// Takes a host's uplink down the moment the controller starts serving, which
// is after discovery found the host and before its bootstrap leaves, and
// brings it back `restore_after` later (never when negative).
struct UplinkSaboteur {
  TestFabric* fabric;
  LinkIndex link;
  TimeNs restore_after;

  void Poll() {
    if (!fabric->has_controller() || !fabric->controller().serving()) {
      fabric->sim().ScheduleAfter(Us(5), [this] { Poll(); });
      return;
    }
    fabric->topo().SetLinkUp(link, false);
    if (restore_after >= 0) {
      fabric->sim().ScheduleAfter(restore_after,
                                  [this] { fabric->topo().SetLinkUp(link, true); });
    }
  }
};

TEST(BootstrapAckTest, ResendReachesAHostWhoseUplinkCameBack) {
  auto fabric = MakeSmallLeafSpine();
  const uint32_t host = static_cast<uint32_t>(fabric->host_count() - 1);
  UplinkSaboteur saboteur{fabric.get(), fabric->topo().host_at(host).link, Ms(10)};
  fabric->sim().ScheduleAt(0, [&saboteur] { saboteur.Poll(); });
  ASSERT_TRUE(fabric->BringUp(0, ControllerConfig(), FastDiscovery(8)));
  EXPECT_TRUE(fabric->agent(host).bootstrapped());
  EXPECT_TRUE(fabric->controller().unacked_hosts().empty());
  EXPECT_GE(fabric->controller().stats().bootstrap_resends, 1u);
}

TEST(BootstrapAckTest, HostThatNeverAcksFailsBringUpAndIsNamed) {
  auto fabric = MakeSmallLeafSpine();
  const uint32_t host = static_cast<uint32_t>(fabric->host_count() - 1);
  UplinkSaboteur saboteur{fabric.get(), fabric->topo().host_at(host).link, -1};
  fabric->sim().ScheduleAt(0, [&saboteur] { saboteur.Poll(); });
  EXPECT_FALSE(fabric->BringUp(0, ControllerConfig(), FastDiscovery(8)));
  EXPECT_FALSE(fabric->agent(host).bootstrapped());
  EXPECT_EQ(fabric->controller().unacked_hosts(),
            std::vector<uint64_t>{fabric->agent(host).mac()});
  EXPECT_EQ(fabric->controller().stats().bootstrap_resends,
            ControllerService::kMaxBootstrapResends);
}

// What a bring-up leaves behind at one host, and across the fabric.
struct BootstrapOutcome {
  uint64_t host_requests = 0;
  uint64_t host_responses = 0;
  uint64_t fabric_requests = 0;
  uint64_t fabric_responses = 0;
  size_t routes = 0;
};

// Brings up the small leaf-spine; with `duplicate`, `host` gets its bootstrap
// a second time 3 us after the first, while its warm-up requests are out.
BootstrapOutcome RunWithDuplicateBootstrap(uint32_t host, bool duplicate) {
  auto fabric = MakeSmallLeafSpine();
  HostAgent& agent = fabric->agent(host);
  std::shared_ptr<const BootstrapInfo> boot;
  agent.SetControlHandler([&](const Packet& pkt) {
    const auto* payload = pkt.As<BootstrapPayload>();
    if (payload == nullptr || boot != nullptr) {
      return false;
    }
    boot = payload->info;
    if (duplicate) {
      fabric->sim().ScheduleAfter(Us(3), [&] {
        const uint64_t requests = agent.stats().path_requests;
        const std::vector<HostLocation> peers = agent.gossip_peers();
        const uint64_t version = agent.topo_cache().db().version();
        const TopoDb::SharedDirectory directory = agent.topo_cache().db().host_base();
        const size_t routes = agent.path_table().size();
        agent.ApplyBootstrap(*boot);
        EXPECT_EQ(agent.stats().path_requests, requests);
        EXPECT_EQ(agent.gossip_peers(), peers);
        EXPECT_EQ(agent.topo_cache().db().version(), version);
        EXPECT_EQ(agent.topo_cache().db().host_base(), directory);
        EXPECT_EQ(agent.path_table().size(), routes);
      });
    }
    return false;  // the agent applies it
  });
  EXPECT_TRUE(fabric->BringUp(0, ControllerConfig(), FastDiscovery(8)));
  EXPECT_NE(boot, nullptr);
  BootstrapOutcome out;
  out.host_requests = agent.stats().path_requests;
  out.host_responses = agent.stats().path_responses;
  out.routes = agent.path_table().size();
  for (uint32_t h = 0; h < fabric->host_count(); ++h) {
    out.fabric_requests += fabric->agent(h).stats().path_requests;
    out.fabric_responses += fabric->agent(h).stats().path_responses;
  }
  return out;
}

TEST(BootstrapAckTest, DuplicateBootstrapChangesNothing) {
  const BootstrapOutcome once = RunWithDuplicateBootstrap(5, false);
  const BootstrapOutcome twice = RunWithDuplicateBootstrap(5, true);
  EXPECT_GT(once.host_requests, 0u);
  EXPECT_EQ(twice.host_requests, once.host_requests);
  EXPECT_EQ(twice.host_responses, once.host_responses);
  EXPECT_EQ(twice.routes, once.routes);
  EXPECT_EQ(twice.fabric_requests, once.fabric_requests);
  EXPECT_EQ(twice.fabric_responses, once.fabric_responses);
}

// --- CpuQueue -------------------------------------------------------------------

// The model CpuQueue replaces: each job is one wheel event, filed at enqueue
// at the end of its CPU slot.
class ScheduleAtCpu {
 public:
  ScheduleAtCpu(Simulator* sim, uint64_t /*cell*/) : sim_(sim) {}

  template <typename Fn>
  void Run(TimeNs cost, Fn fn) {
    free_ = std::max(sim_->Now(), free_) + cost;
    sim_->ScheduleAt(free_, std::move(fn));
  }

 private:
  Simulator* sim_;
  TimeNs free_ = 0;
};

using Trace = std::vector<std::pair<TimeNs, uint64_t>>;

// One job script, run through `Cpu`; returns every executed event's (at, seq).
template <typename Cpu>
Trace RunCpuScript() {
  Simulator sim;
  Cpu cpu(&sim, 1);
  Trace trace;
  sim.SetTraceHook([&](TimeNs at, uint64_t seq) { trace.emplace_back(at, seq); });
  auto noop = [] {};

  sim.ScheduleAt(15, noop);  // foreign, filed before the job finishing at 15
  cpu.Run(10, [&] {          // 10
    cpu.Run(0, noop);        // enqueued by a running job, ties with the tail (30)
    cpu.Run(3, noop);        // 33
    sim.ScheduleAt(sim.Now(), noop);
  });
  cpu.Run(0, noop);          // zero cost behind a busy CPU: 10, with the tail
  sim.ScheduleAt(10, noop);  // foreign, at a job's exact finish, after it
  cpu.Run(5, [&] {           // 15
    sim.ScheduleAt(30, noop);  // foreign, at the next job's finish
  });
  cpu.Run(15, noop);  // 30
  cpu.Run(0, noop);   // 30
  cpu.Run(0, noop);   // 30
  sim.ScheduleAt(30, noop);

  EXPECT_EQ(sim.RunSteps(5), 5u);  // stops inside the batch at 15
  cpu.Run(0, noop);                // enqueued between RunSteps calls
  cpu.Run(7, noop);
  EXPECT_EQ(sim.RunSteps(4), 4u);  // stops inside the batch at 30
  cpu.Run(0, noop);
  cpu.Run(2, noop);
  sim.Run();

  // An idle CPU: a zero-cost job runs now, and enqueues onto an empty queue.
  cpu.Run(0, [&] {
    cpu.Run(0, noop);
    cpu.Run(2, noop);
    sim.ScheduleAt(sim.Now() + 2, noop);
  });
  sim.Run();
  return trace;
}

TEST(CpuQueueTest, RunsEveryJobAtTheTimeAndSeqOfOneScheduleAtPerJob) {
  const Trace queue = RunCpuScript<CpuQueue>();
  const Trace reference = RunCpuScript<ScheduleAtCpu>();
  EXPECT_EQ(queue.size(), 21u);
  ASSERT_EQ(queue.size(), reference.size());
  for (size_t i = 0; i < queue.size(); ++i) {
    EXPECT_EQ(queue[i], reference[i]) << "event " << i;
  }
}

TEST(CpuQueueTest, KeepsABacklogOutOfTheWheel) {
  Simulator sim;
  CpuQueue cpu(&sim, 1);
  uint64_t ran = 0;
  for (int i = 0; i < 1000; ++i) {
    cpu.Run(Us(30), [&ran] { ++ran; });
    cpu.Run(0, [&ran] { ++ran; });  // ties with the job before it
  }
  // The head, and the one tie enqueued while its job was already the head.
  EXPECT_EQ(sim.mem_stats().queued_events, 2u);
  EXPECT_EQ(sim.RunSteps(2), 2u);
  // The next head and its tie.
  EXPECT_EQ(sim.mem_stats().queued_events, 2u);
  sim.Run();
  EXPECT_EQ(ran, 2000u);
  EXPECT_EQ(sim.Now(), Us(30) * 1000);
}

// Jobs still queued when the simulator goes away (the filed head, a tie filed
// in the wheel, and jobs and a tie in the FIFO) release their captures; LSan
// sees any leak.
TEST(CpuQueueTest, DestroyingWithJobsQueuedFreesTheirCaptures) {
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  auto sim = std::make_unique<Simulator>();
  {
    CpuQueue cpu(sim.get(), 1);
    const auto job = [token] { ++*token; };
    token.reset();
    cpu.Run(Us(1), job);  // the head
    cpu.Run(0, job);      // ties with the filed head: filed in the wheel
    cpu.Run(Us(1), job);  // FIFO; the head once the first job has run
    cpu.Run(Us(1), job);  // FIFO
    cpu.Run(0, job);      // ties with the FIFO's tail: stays in the FIFO
    EXPECT_EQ(sim->RunSteps(1), 1u);
    EXPECT_EQ(*watch.lock(), 1);
    EXPECT_EQ(watch.use_count(), 5);  // `job`, the tie in the wheel, three queued
    sim.reset();
    EXPECT_EQ(watch.use_count(), 4);
  }
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace dumbnet
