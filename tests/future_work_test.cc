// Tests for the paper's Section 8 future-work features implemented here: ECN
// marking + soft-state packet statistics on the dumb switch, congestion-avoiding
// rerouting, host join probing, and controller failover from the replicated log.
#include <gtest/gtest.h>

#include "src/ctrl/controller.h"
#include "src/ext/ecn_reroute.h"
#include "src/host/join_prober.h"
#include "src/topo/generators.h"
#include "src/transport/reliable_flow.h"
#include "tests/test_fabric.h"

namespace dumbnet {
namespace {

TEST(SwitchStatsTest, SoftStateCountersTrackTraffic) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  uint32_t leaf0 = tb.value().leaves[0];
  TestFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(25);

  uint64_t before_p1 = fabric.dumb_switch(leaf0).port_tx_packets(1);
  uint64_t before_p2 = fabric.dumb_switch(leaf0).port_tx_packets(2);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fabric.agent(0).Send(fabric.agent(12).mac(), 1000u + static_cast<uint64_t>(i), DataPayload{}).ok());
  }
  fabric.Run();
  uint64_t up1 = fabric.dumb_switch(leaf0).port_tx_packets(1) - before_p1;
  uint64_t up2 = fabric.dumb_switch(leaf0).port_tx_packets(2) - before_p2;
  // 50 flows spread across the two uplinks; counters see all of them.
  EXPECT_EQ(up1 + up2, 50u);
  EXPECT_GT(up1, 0u);
  EXPECT_GT(up2, 0u);
  EXPECT_GT(fabric.dumb_switch(leaf0).port_tx_bytes(1), 0u);
}

TEST(EcnTest, DeepQueueMarksPackets) {
  // A slow inter-switch link with a fast sender: the egress queue fills and ECN
  // marks appear at the receiver.
  Topology topo;
  uint32_t s0 = topo.AddSwitch(8);
  uint32_t s1 = topo.AddSwitch(8);
  (void)topo.ConnectSwitches(s0, 1, s1, 1, /*bandwidth_gbps=*/0.1);
  uint32_t h0 = topo.AddHost();
  uint32_t h1 = topo.AddHost();
  (void)topo.AttachHost(h0, s0, 5, 10.0);
  (void)topo.AttachHost(h1, s1, 5, 10.0);

  DumbSwitchConfig sw_config;
  sw_config.ecn_threshold_bytes = 16 * 1024;
  TestFabric fabric(std::move(topo), HostAgentConfig(), sw_config);
  fabric.BringUpAdopted(0);

  int marked = 0;
  int total = 0;
  fabric.agent(1).SetDataHandler([&](const Packet&, const DataPayload& data) {
    ++total;
    marked += data.ecn ? 1 : 0;
  });
  // Blast 200 MTU packets back to back: far more than the 16 KB threshold.
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(fabric.agent(0).Send(fabric.agent(1).mac(), 1, DataPayload{}).ok());
  }
  fabric.Run();
  EXPECT_EQ(total, 200);
  EXPECT_GT(marked, 50);   // most of the burst sits behind a deep queue
  EXPECT_LT(marked, 200);  // the head of the burst is unmarked
}

TEST(EcnTest, DisabledMeansNoMarks) {
  Topology topo;
  uint32_t s0 = topo.AddSwitch(8);
  uint32_t s1 = topo.AddSwitch(8);
  (void)topo.ConnectSwitches(s0, 1, s1, 1, 0.1);
  uint32_t h0 = topo.AddHost();
  uint32_t h1 = topo.AddHost();
  (void)topo.AttachHost(h0, s0, 5, 10.0);
  (void)topo.AttachHost(h1, s1, 5, 10.0);
  DumbSwitchConfig sw_config;
  sw_config.enable_ecn = false;
  TestFabric fabric(std::move(topo), HostAgentConfig(), sw_config);
  fabric.BringUpAdopted(0);
  int marked = 0;
  fabric.agent(1).SetDataHandler(
      [&](const Packet&, const DataPayload& d) { marked += d.ecn ? 1 : 0; });
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(fabric.agent(0).Send(fabric.agent(1).mac(), 1, DataPayload{}).ok());
  }
  fabric.Run();
  EXPECT_EQ(marked, 0);
}

// Returns the first-hop tag (uplink) the flow is currently bound to, 0 if unbound.
PortNum BoundUplink(HostAgent& agent, uint64_t dst_mac, uint64_t flow_id) {
  const PathTableEntry* entry = agent.path_table().Find(dst_mac);
  if (entry == nullptr) {
    return 0;
  }
  auto it = entry->flow_binding.find(flow_id);
  if (it == entry->flow_binding.end() || it->second >= entry->paths.size()) {
    return 0;
  }
  return entry->paths[it->second].tags.front();
}

TEST(EcnRerouteTest, CongestedFlowMovesToQuietSpine) {
  // A watched flow and a pinned background flow collide on one slow uplink; ECN
  // rerouting must move the watched flow to the other spine.
  LeafSpineConfig config;
  config.num_spine = 2;
  config.num_leaf = 2;
  config.hosts_per_leaf = 4;
  config.uplink_gbps = 0.3;
  config.host_gbps = 10.0;
  auto ls = MakeLeafSpine(config);
  ASSERT_TRUE(ls.ok());
  DumbSwitchConfig sw_config;
  sw_config.ecn_threshold_bytes = 8 * 1024;
  TestFabric fabric(std::move(ls.value().topo), HostAgentConfig(), sw_config);
  fabric.BringUpAdopted(0);

  DumbNetChannel watched_src(&fabric.agent(1));
  DumbNetChannel watched_dst(&fabric.agent(4));
  ReliableFlowReceiver watched_rx(&watched_dst, 1);
  FlowConfig flow;
  flow.total_bytes = 0;
  ReliableFlowSender watched_tx(&watched_src, 1, fabric.agent(4).mac(), flow);
  watched_tx.Start();
  fabric.RunUntil(fabric.Now() + Ms(20));
  PortNum initial_uplink = BoundUplink(fabric.agent(1), fabric.agent(4).mac(), 1);
  ASSERT_NE(initial_uplink, 0);

  // Pin the background flow onto the SAME uplink to force the collision.
  fabric.agent(2).SetRouteChooser(
      [initial_uplink](const PathTableEntry& entry, uint64_t) -> size_t {
        for (size_t i = 0; i < entry.paths.size(); ++i) {
          if (entry.paths[i].tags.front() == initial_uplink) {
            return i;
          }
        }
        return SIZE_MAX;
      });
  DumbNetChannel bg_src(&fabric.agent(2));
  DumbNetChannel bg_dst(&fabric.agent(5));
  ReliableFlowReceiver bg_rx(&bg_dst, 2);
  ReliableFlowSender bg_tx(&bg_src, 2, fabric.agent(5).mac(), flow);
  bg_tx.Start();
  fabric.RunUntil(fabric.Now() + Ms(100));

  EcnRerouteConfig ecn_config;
  ecn_config.sample_interval = Ms(5);
  ecn_config.mark_fraction_threshold = 0.2;
  EcnRerouter rerouter(&fabric.agent(1), &watched_tx, fabric.agent(4).mac(), ecn_config);
  rerouter.Start();
  fabric.RunUntil(fabric.Now() + Sec(2));

  EXPECT_GT(watched_tx.progress().ecn_acks, 0u) << "collision never materialized";
  EXPECT_GT(rerouter.stats().reroutes, 0u);
  PortNum final_uplink = BoundUplink(fabric.agent(1), fabric.agent(4).mac(), 1);
  EXPECT_NE(final_uplink, 0);
  EXPECT_NE(final_uplink, initial_uplink) << "flow never escaped the congested uplink";

  watched_tx.Stop();
  bg_tx.Stop();
  rerouter.Stop();
  fabric.RunUntil(fabric.Now() + Sec(1));
}

TEST(JoinProberTest, FindsAttachPointAndController) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  TestFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(25);  // everyone is bootstrapped and knows the controller

  // Host 3 "rejoins": it probes from scratch.
  JoinProber prober(&fabric.agent(3), JoinProberConfig{16, Ms(50)});
  JoinResult result;
  bool done = false;
  prober.Start([&](const JoinResult& r) {
    result = r;
    done = true;
  });
  fabric.Run();

  ASSERT_TRUE(done);
  auto truth = fabric.topo().HostUplink(3);
  EXPECT_EQ(result.self.switch_uid,
            fabric.topo().switch_at(truth.value().node.index).uid);
  EXPECT_EQ(result.self.port, truth.value().port);
  EXPECT_EQ(result.controller_mac, fabric.agent(25).mac());
  EXPECT_GT(result.probes_sent, 16u);
}

TEST(JoinProberTest, NoControllerKnownYieldsZero) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  TestFabric fabric(std::move(tb.value().topo));
  // Nobody bootstrapped: neighbors reply but know no controller.
  JoinProber prober(&fabric.agent(3), JoinProberConfig{16, Ms(50)});
  JoinResult result;
  bool done = false;
  prober.Start([&](const JoinResult& r) {
    result = r;
    done = true;
  });
  fabric.Run();
  ASSERT_TRUE(done);
  EXPECT_NE(result.self.switch_uid, 0u);
  EXPECT_EQ(result.controller_mac, 0u);
}

TEST(FailoverTest, StandbyTakesOverFromReplicatedLog) {
  // A fat-tree, not the paper testbed: there every host's cache holds every
  // switch after bring-up, so no send would need the (dead) controller.
  FatTreeConfig config;
  config.k = 4;
  auto tb = MakeFatTree(config);
  ASSERT_TRUE(tb.ok());
  auto core = tb.value().core;
  TestFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(15);  // primary on host 15

  ReplicatedLog log(&fabric.sim(), ReplicatedLogConfig{3, Us(200)});
  fabric.controller().AttachLog(&log);
  TopoDb base_snapshot = fabric.controller().db();  // standby's initial snapshot

  // Some topology history accumulates.
  LinkIndex li = fabric.topo().LinkAtPort(core[0], 1);
  fabric.topo().SetLinkUp(li, false);
  fabric.Run();

  // Primary dies. A fresh host's query goes unanswered: the destination's
  // switch is not in the source's TopoCache, so only the controller can route.
  fabric.controller().Stop();
  HostAgent& src = fabric.agent(0);
  HostAgent& dst = fabric.agent(8);
  auto dst_loc = src.topo_cache().Locate(dst.mac());
  ASSERT_TRUE(dst_loc.ok());
  ASSERT_FALSE(src.topo_cache().db().IndexOf(dst_loc.value().switch_uid).ok());
  int received = 0;
  dst.SetDataHandler([&](const Packet&, const DataPayload&) { ++received; });
  ASSERT_TRUE(src.Send(dst.mac(), 9, DataPayload{}).ok());
  fabric.RunUntil(fabric.Now() + Ms(100));
  EXPECT_EQ(received, 0);

  // Standby on host 14 rebuilds the database from snapshot + replica log and
  // takes over: it re-bootstraps every host with its own identity.
  ControllerService standby(&fabric.agent(14));
  TopoDb rebuilt = base_snapshot;
  ReplicatedLog::ApplyTo(log.ReplicaLog(1), rebuilt);
  standby.AdoptDatabase(std::move(rebuilt));
  fabric.Run();

  // The blocked flow drains through the new controller (host retry finds it).
  EXPECT_EQ(received, 1);
  EXPECT_GE(standby.stats().queries_served, 1u);
  // And the standby's view includes the pre-failover link state.
  uint64_t core_uid = fabric.topo().switch_at(core[0]).uid;
  auto idx = standby.db().IndexOf(core_uid);
  ASSERT_TRUE(idx.ok());
  LinkIndex mirrored = standby.db().mirror().LinkAtPort(idx.value(), 1);
  ASSERT_NE(mirrored, kInvalidLink);
  EXPECT_FALSE(standby.db().mirror().link_at(mirrored).up);
}

}  // namespace
}  // namespace dumbnet
