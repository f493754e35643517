// Tests of the SimulatedFabric assembly (src/core) — the public entry point.
#include "src/core/fabric.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

#include "src/topo/generators.h"

namespace dumbnet {
namespace {

TEST(SimulatedFabricTest, BringUpViaDiscovery) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  SimulatedFabric fabric(std::move(tb.value().topo));
  DiscoveryConfig discovery;
  discovery.max_ports = 16;
  discovery.pm_send_cost = Us(1);
  discovery.pm_recv_cost = Us(1);
  discovery.probe_timeout = Ms(20);
  ASSERT_TRUE(fabric.BringUp(25, ControllerConfig(), discovery));
  EXPECT_TRUE(fabric.has_controller());
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    EXPECT_TRUE(fabric.agent(h).bootstrapped());
    // Every warm-up path query was answered before its retries ran out.
    EXPECT_EQ(fabric.agent(h).stats().path_giveups, 0u) << "host " << h;
  }
  // Each route install either ran Yen or reused the cache snapshot's memoized
  // run, and the host's counters account for all of its cache's route work.
  uint64_t ksp_runs = 0;
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    const HostAgentStats& st = fabric.agent(h).stats();
    const TopoCache::RouteStats& rs = fabric.agent(h).topo_cache().route_stats();
    EXPECT_EQ(st.ksp_runs, rs.ksp_runs) << "host " << h;
    EXPECT_EQ(st.ksp_memo_hits, rs.ksp_memo_hits) << "host " << h;
    ksp_runs += st.ksp_runs;
  }
  EXPECT_GT(ksp_runs, 0u);
}

TEST(SimulatedFabricTest, BringUpAdoptedIsInstant) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  SimulatedFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(0);
  // No probing: far fewer packets than discovery needs.
  EXPECT_LT(fabric.net().stats().delivered, 2000u);
  EXPECT_EQ(fabric.controller().db().switch_count(), 7u);
}

TEST(SimulatedFabricTest, AccessorsAreConsistent) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  SimulatedFabric fabric(std::move(tb.value().topo));
  EXPECT_EQ(fabric.host_count(), fabric.topo().host_count());
  EXPECT_EQ(fabric.switch_count(), fabric.topo().switch_count());
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    EXPECT_EQ(fabric.agent(h).mac(), fabric.topo().host_at(h).mac);
  }
  for (uint32_t s = 0; s < fabric.switch_count(); ++s) {
    EXPECT_EQ(fabric.dumb_switch(s).uid(), fabric.topo().switch_at(s).uid);
  }
}

TEST(SimulatedFabricTest, TwoFabricsAreIndependent) {
  LeafSpineConfig a_config;
  a_config.num_spine = 1;
  a_config.num_leaf = 1;
  a_config.hosts_per_leaf = 2;
  a_config.switch_ports = 8;
  LeafSpineConfig b_config = a_config;
  b_config.id_space = 1;
  auto a = MakeLeafSpine(a_config);
  auto b = MakeLeafSpine(b_config);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  SimulatedFabric fab_a(std::move(a.value().topo));
  SimulatedFabric fab_b(std::move(b.value().topo));
  EXPECT_NE(fab_a.agent(0).mac(), fab_b.agent(0).mac());
  EXPECT_NE(fab_a.dumb_switch(0).uid(), fab_b.dumb_switch(0).uid());
}

TEST(SimulatedFabricTest, DeterministicRuns) {
  auto run = [] {
    auto tb = MakePaperTestbed();
    SimulatedFabric fabric(std::move(tb.value().topo));
    fabric.BringUpAdopted(25);
    for (uint32_t h = 0; h < 10; ++h) {
      (void)fabric.agent(h).Send(fabric.agent((h + 7) % 25).mac(), h, DataPayload{});
    }
    fabric.Run();
    return std::pair(fabric.net().stats().delivered, fabric.Now());
  };
  auto first = run();
  auto second = run();
  EXPECT_EQ(first, second);
}

// A send from a host index the topology does not have is dropped and counted
// as unwired, like a send from a host with no cable.
TEST(SimulatedFabricTest, SendsFromUnknownHostsCountAsUnwired) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  SimulatedFabric fabric(std::move(tb.value().topo));
  const uint32_t bad = static_cast<uint32_t>(fabric.host_count()) + 7;
  constexpr uint64_t kSends = 50;
  fabric.sim().ScheduleAt(Us(1), [&fabric, bad] {
    for (uint64_t i = 0; i < kSends; ++i) {
      fabric.net().SendFromHost(bad,
                                MakeEthernetPacket(1, 2, kEtherTypeDumbNet, DataPayload{}));
    }
  });
  fabric.Run();
  EXPECT_EQ(fabric.net().stats().dropped_unwired, kSends);
  EXPECT_EQ(fabric.net().stats().delivered, 0u);
}

// The simulator is not sharded: the trailing constructor argument accepts 1
// and nothing else, in every build type.
TEST(SimulatedFabricTest, RejectsShardCountsOtherThanOne) {
  for (uint32_t shards : {0u, 2u, 4u}) {
    auto tb = MakePaperTestbed();
    ASSERT_TRUE(tb.ok());
    EXPECT_THROW(SimulatedFabric(std::move(tb.value().topo), HostAgentConfig(),
                                 DumbSwitchConfig(), NetworkConfig(), shards),
                 std::invalid_argument)
        << "shards=" << shards;
  }
}

// Tearing a fabric down mid-run, with packets held by host send, switch
// forward, flood and host deliver events and others on the wire (a
// notification storm's copies sharing bodies among them), frees every one of
// them: the network goes before the simulator, so its body pool outlives it
// until the last event holding a body is destroyed (the ASan/LSan legs check
// it).
TEST(SimulatedFabricTest, TeardownMidFlightFreesEveryPacket) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  const uint32_t spine0 = tb.value().spines[0];
  auto fabric = std::make_unique<SimulatedFabric>(std::move(tb.value().topo));
  fabric->BringUpAdopted(/*controller_host=*/25);
  const uint32_t n = static_cast<uint32_t>(fabric->host_count());
  auto burst = [&] {
    DataPayload d;
    d.bytes = 1500;
    for (uint32_t h = 0; h < n; ++h) {
      for (uint64_t flow = 0; flow < 4; ++flow) {
        ASSERT_TRUE(fabric->agent(h).Send(fabric->agent((h + 7) % n).mac(), flow, d).ok());
      }
    }
  };
  burst();  // asks the controller for every route
  fabric->Run();
  uint64_t blocked = 0;
  for (uint32_t h = 0; h < n; ++h) {
    blocked += fabric->agent(h).stats().data_blocked;
  }
  // A spine link dies; its alarms go out once loss of signal is detected.
  const LinkIndex li = fabric->topo().LinkAtPort(spine0, 1);
  ASSERT_NE(li, kInvalidLink);
  fabric->topo().SetLinkUp(li, false);
  fabric->RunUntil(fabric->Now() + Ms(1) + Us(1));
  burst();
  for (uint32_t h = 0; h < n; ++h) {
    blocked -= fabric->agent(h).stats().data_blocked;
  }
  ASSERT_EQ(blocked, 0u) << "the second burst takes cached routes";
  // Mid-burst and mid-storm (3 µs in, while the first relays' copies share
  // their bodies on the wire): frames wait in switch forward and host deliver
  // events and on the wire; one more send waits in its host send event. Every
  // live descriptor holds one handle, so the handles beyond them are held by
  // events.
  fabric->RunUntil(fabric->Now() + Us(3));
  const Network::PacketPoolStats before_send = fabric->net().packet_pool_stats();
  ASSERT_TRUE(fabric->agent(0).Send(fabric->agent(7).mac(), 0, DataPayload{}).ok());
  const Network::PacketPoolStats mid = fabric->net().packet_pool_stats();
  const size_t held_by_events = before_send.handles_live - before_send.descriptors_live;
  EXPECT_GT(held_by_events, 0u) << "frames in switch forward and host deliver events";
  EXPECT_EQ(mid.handles_live - mid.descriptors_live, held_by_events + 1)
      << "the send holds its body in its host send event";
  EXPECT_GT(mid.descriptors_live, 0u) << "packets on the wire";
  uint64_t relayed = 0;
  for (uint32_t s = 0; s < fabric->switch_count(); ++s) {
    relayed += fabric->dumb_switch(s).stats().notifications_relayed;
  }
  EXPECT_GT(relayed, 0u) << "the storm is under way";
  EXPECT_GT(mid.handles_live, mid.bodies_live) << "flood copies share bodies";
  fabric.reset();
}

// One link-down storm on a fat-tree k=8: relayed notifications fan out as
// descriptors sharing one body per relay, so at its peak the storm holds no
// more than one body per five descriptors; at quiescence every descriptor and
// body is back in its pool.
TEST(SimulatedFabricTest, LinkDownStormSharesOneBodyPerRelay) {
  FatTreeConfig config;
  config.k = 8;
  auto ft = MakeFatTree(config);
  ASSERT_TRUE(ft.ok());
  const uint32_t agg = ft.value().aggregation[0];
  SimulatedFabric fabric(std::move(ft.value().topo));
  fabric.BringUpAdopted(/*controller_host=*/0);
  LinkIndex core_link = kInvalidLink;
  const Topology& topo = fabric.topo();
  for (uint32_t p = 1; p <= topo.switch_at(agg).num_ports && core_link == kInvalidLink; ++p) {
    const LinkIndex li = topo.LinkAtPort(agg, static_cast<PortNum>(p));
    if (li == kInvalidLink) {
      continue;
    }
    const Link& link = topo.link_at(li);
    const NodeId other = link.a.node == NodeId::Switch(agg) ? link.b.node : link.a.node;
    for (uint32_t c : ft.value().core) {
      if (other == NodeId::Switch(c)) {
        core_link = li;
      }
    }
  }
  ASSERT_NE(core_link, kInvalidLink);
  const Network::PacketPoolStats before = fabric.net().packet_pool_stats();
  fabric.topo().SetLinkUp(core_link, false);
  fabric.Run();
  const Network::PacketPoolStats after = fabric.net().packet_pool_stats();
  uint64_t relayed = 0;
  for (uint32_t s = 0; s < fabric.switch_count(); ++s) {
    relayed += fabric.dumb_switch(s).stats().notifications_relayed;
  }
  ASSERT_GT(relayed, 1000u);
  EXPECT_GT(after.descriptors_peak, before.descriptors_peak) << "the storm sets the peak";
  EXPECT_LE(5 * after.bodies_peak, after.descriptors_peak);
  EXPECT_EQ(after.descriptors_live, 0u);
  EXPECT_EQ(after.bodies_live, 0u);
}

}  // namespace
}  // namespace dumbnet
