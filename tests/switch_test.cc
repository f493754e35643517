// Unit tests of the dumb switch: tag forwarding, ID queries, alarm suppression,
// hop-limited notification broadcast.
#include "src/switch/dumb_switch.h"

#include <gtest/gtest.h>

#include "src/topo/generators.h"
#include "tests/test_fabric.h"

namespace dumbnet {
namespace {

// Captures everything delivered to a host.
class SinkHost : public NetNode {
 public:
  SinkHost(Network* net, uint32_t host_index) : net_(net), host_index_(host_index) {
    net->RegisterHostNode(host_index, this);
  }
  void HandlePacket(const Packet& pkt, PortNum) override { received.push_back(pkt); }
  void Send(Packet pkt) { net_->SendFromHost(host_index_, pkt); }

  std::vector<Packet> received;

 private:
  Network* net_;
  uint32_t host_index_;
};

// Two hosts on a 3-switch line: H0 - S0 - S1 - S2 - H1.
struct LineFixture {
  LineFixture() {
    for (int i = 0; i < 3; ++i) {
      topo.AddSwitch(8);
    }
    topo.ConnectSwitches(0, 1, 1, 1).value();
    topo.ConnectSwitches(1, 2, 2, 1).value();
    uint32_t h0 = topo.AddHost();
    uint32_t h1 = topo.AddHost();
    topo.AttachHost(h0, 0, 5).value();
    topo.AttachHost(h1, 2, 5).value();
    net = std::make_unique<Network>(&sim, &topo);
    for (uint32_t s = 0; s < 3; ++s) {
      switches.push_back(std::make_unique<DumbSwitch>(net.get(), s));
    }
    hosts.push_back(std::make_unique<SinkHost>(net.get(), 0));
    hosts.push_back(std::make_unique<SinkHost>(net.get(), 1));
  }

  Topology topo;
  Simulator sim;
  std::unique_ptr<Network> net;
  std::vector<std::unique_ptr<DumbSwitch>> switches;
  std::vector<std::unique_ptr<SinkHost>> hosts;
};

TEST(DumbSwitchTest, ForwardsByTagsAndConsumesThem) {
  LineFixture f;
  Packet pkt = MakeDumbNetPacket(1, 2, {1, 2, 5}, DataPayload{});
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  ASSERT_EQ(f.hosts[1]->received.size(), 1u);
  // All transit tags consumed; only ø remains.
  EXPECT_EQ(f.hosts[1]->received[0].tags, (TagList{kPathEndTag}));
  EXPECT_EQ(f.switches[0]->stats().forwarded, 1u);
  EXPECT_EQ(f.switches[1]->stats().forwarded, 1u);
  EXPECT_EQ(f.switches[2]->stats().forwarded, 1u);
}

TEST(DumbSwitchTest, DropsOnBadPort) {
  LineFixture f;
  Packet pkt = MakeDumbNetPacket(1, 2, {7}, DataPayload{});  // port 7 unwired
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  EXPECT_TRUE(f.hosts[1]->received.empty());
  EXPECT_EQ(f.switches[0]->stats().dropped_port_down, 1u);  // unwired = no signal

  Packet bad = MakeDumbNetPacket(1, 2, {99}, DataPayload{});  // beyond num_ports
  f.hosts[0]->Send(bad);
  f.sim.Run();
  EXPECT_EQ(f.switches[0]->stats().dropped_bad_tag, 1u);
}

TEST(DumbSwitchTest, DropsWhenPathEndsAtSwitch) {
  LineFixture f;
  Packet pkt = MakeDumbNetPacket(1, 2, {1}, DataPayload{});  // ø will hit S1
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  EXPECT_EQ(f.switches[1]->stats().dropped_bad_tag, 1u);
}

TEST(DumbSwitchTest, DropsOnDownLink) {
  LineFixture f;
  f.topo.SetLinkUp(f.topo.LinkAtPort(1, 2), false);
  Packet pkt = MakeDumbNetPacket(1, 2, {1, 2, 5}, DataPayload{});
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  // Only the port-down broadcast may arrive, never the data packet.
  for (const Packet& p : f.hosts[1]->received) {
    EXPECT_EQ(p.As<DataPayload>(), nullptr);
  }
  EXPECT_EQ(f.switches[1]->stats().dropped_port_down, 1u);
}

TEST(DumbSwitchTest, IdQueryRepliesWithUid) {
  LineFixture f;
  // 0-5-ø: S0 answers the ID query and routes the reply out port 5 back to H0.
  Packet pkt = MakeDumbNetPacket(1, kBroadcastMac, {kIdQueryTag, 5},
                                 ProbePayload{42, 1, {kIdQueryTag, 5, kPathEndTag}});
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  ASSERT_EQ(f.hosts[0]->received.size(), 1u);
  const auto* reply = f.hosts[0]->received[0].As<IdReplyPayload>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->switch_uid, f.topo.switch_at(0).uid);
  EXPECT_EQ(reply->probe_id, 42u);
}

TEST(DumbSwitchTest, MultiHopIdQuery) {
  LineFixture f;
  // 1-0-1-5-ø: S0 forwards to S1; S1 replies its ID along 1-5-ø.
  Packet pkt =
      MakeDumbNetPacket(1, kBroadcastMac, {1, kIdQueryTag, 1, 5},
                        ProbePayload{43, 1, {1, kIdQueryTag, 1, 5, kPathEndTag}});
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  ASSERT_EQ(f.hosts[0]->received.size(), 1u);
  const auto* reply = f.hosts[0]->received[0].As<IdReplyPayload>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->switch_uid, f.topo.switch_at(1).uid);
}

TEST(DumbSwitchTest, NonDumbNetEtherTypeDropped) {
  LineFixture f;
  Packet pkt = MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{});
  f.hosts[0]->Send(pkt);
  f.sim.Run();
  EXPECT_EQ(f.switches[0]->stats().dropped_foreign, 1u);
}

TEST(DumbSwitchTest, PortDownBroadcastReachesHosts) {
  LineFixture f;
  f.topo.SetLinkUp(f.topo.LinkAtPort(1, 2), false);
  f.sim.Run();
  // Both S1 and S2 detect and broadcast; hosts on both sides hear something.
  auto count_events = [](const std::vector<Packet>& pkts) {
    int n = 0;
    for (const Packet& p : pkts) {
      if (p.As<PortEventPayload>() != nullptr) {
        ++n;
      }
    }
    return n;
  };
  EXPECT_GE(count_events(f.hosts[0]->received), 1);
  EXPECT_GE(count_events(f.hosts[1]->received), 1);
}

TEST(DumbSwitchTest, BroadcastHopLimitBounds) {
  // A long line of switches: notification must die after notify_hops hops.
  Topology topo;
  const uint32_t n = 10;
  for (uint32_t i = 0; i < n; ++i) {
    topo.AddSwitch(8);
  }
  for (uint32_t i = 0; i + 1 < n; ++i) {
    topo.ConnectSwitches(i, 2, i + 1, 1).value();
  }
  std::vector<uint32_t> host_ids;
  for (uint32_t i = 0; i < n; ++i) {
    uint32_t h = topo.AddHost();
    topo.AttachHost(h, i, 5).value();
    host_ids.push_back(h);
  }
  Simulator sim;
  Network net(&sim, &topo);
  DumbSwitchConfig sw_config;
  sw_config.notify_hops = 3;
  std::vector<std::unique_ptr<DumbSwitch>> switches;
  for (uint32_t i = 0; i < n; ++i) {
    switches.push_back(std::make_unique<DumbSwitch>(&net, i, sw_config));
  }
  std::vector<std::unique_ptr<SinkHost>> hosts;
  for (uint32_t i = 0; i < n; ++i) {
    hosts.push_back(std::make_unique<SinkHost>(&net, i));
  }
  // Fail the link at the far end (S0-S1).
  topo.SetLinkUp(topo.LinkAtPort(0, 2), false);
  sim.Run();
  auto heard = [&](size_t i) {
    for (const Packet& p : hosts[i]->received) {
      if (p.As<PortEventPayload>() != nullptr) {
        return true;
      }
    }
    return false;
  };
  EXPECT_TRUE(heard(1));
  EXPECT_TRUE(heard(3));
  // S1's alarm has 3 hops: reaches hosts on S1..S4 but not S7+.
  EXPECT_FALSE(heard(7));
  EXPECT_FALSE(heard(9));
}

TEST(DumbSwitchTest, AlarmSuppressionLimitsRate) {
  LineFixture f;
  LinkIndex li = f.topo.LinkAtPort(1, 2);
  // Flap the link 10 times within one second.
  for (int i = 0; i < 10; ++i) {
    f.sim.ScheduleAt(Ms(10 * i), [&f, li, i] { f.topo.SetLinkUp(li, i % 2 == 0); });
  }
  f.sim.RunUntil(Sec(3));
  // At most 1 initial + trailing alarms per suppression window per endpoint; far
  // fewer than the 10 state changes.
  EXPECT_LE(f.switches[1]->stats().notifications_sent, 3u);
  EXPECT_GT(f.switches[1]->stats().alarms_suppressed, 0u);
  // The trailing alarm carried the latest state.
  EXPECT_GE(f.switches[1]->stats().notifications_sent, 2u);
}

TEST(DumbSwitchTest, FloodIsOneEventOverPortsUpWhenScheduled) {
  // S0 with five hosts: H0 on the ingress port, H1 up, H2 down throughout,
  // H3 down when the flood is scheduled but up before it fires, H4 up when it
  // is scheduled but down before it fires.
  Topology topo;
  topo.AddSwitch(8);
  std::vector<LinkIndex> links;
  for (PortNum port = 1; port <= 5; ++port) {
    const uint32_t h = topo.AddHost();
    topo.AttachHost(h, 0, port).value();
    links.push_back(topo.LinkAtPort(0, port));
  }
  topo.SetLinkUp(links[2], false);
  topo.SetLinkUp(links[3], false);
  Simulator sim;
  Network net(&sim, &topo);
  DumbSwitch sw(&net, 0);
  std::vector<std::unique_ptr<SinkHost>> hosts;
  for (uint32_t h = 0; h < 5; ++h) {
    hosts.push_back(std::make_unique<SinkHost>(&net, h));
  }

  Packet note;
  note.eth.src_mac = 0x77;
  note.eth.dst_mac = kBroadcastMac;
  note.eth.ether_type = kEtherTypeDumbNet;
  note.payload = PortEventPayload{0x99, 3, false, 2, 1, 0};
  sw.HandlePacket(note, PortNum{1});
  EXPECT_EQ(sw.stats().notifications_relayed, 1u);
  // One event for the whole flood, not one per port.
  EXPECT_EQ(sim.mem_stats().queued_events, 1u);

  topo.SetLinkUp(links[3], true);
  topo.SetLinkUp(links[4], false);
  // Stop before the 1 ms loss-of-signal detection reacts to those flaps.
  sim.RunUntil(Us(100));
  EXPECT_EQ(sim.executed_events(), 2u);  // the flood and H1's delivery
  ASSERT_EQ(hosts[1]->received.size(), 1u);
  ASSERT_NE(hosts[1]->received[0].As<PortEventPayload>(), nullptr);
  EXPECT_EQ(hosts[1]->received[0].As<PortEventPayload>()->hops_left, 1);
  for (uint32_t h : {0u, 2u, 3u, 4u}) {
    EXPECT_TRUE(hosts[h]->received.empty()) << "host " << h;
  }
  // H4's copy was sent into the dead link and dropped there.
  EXPECT_EQ(net.stats().dropped_link_down, 1u);
}

// A relayed notification writes a body of its own: the copy's siblings, which
// share the body it arrived in, keep their hop count, and the relay's flood
// shares its one new body across every port.
TEST(DumbSwitchTest, RelayingASharedCopyLeavesItsSiblingsUnchanged) {
  // S0 with hosts on ports 1..3.
  Topology topo;
  topo.AddSwitch(8);
  for (PortNum port = 1; port <= 3; ++port) {
    topo.AttachHost(topo.AddHost(), 0, port).value();
  }
  Simulator sim;
  Network net(&sim, &topo);
  DumbSwitch sw(&net, 0);
  std::vector<std::unique_ptr<SinkHost>> hosts;
  for (uint32_t h = 0; h < 3; ++h) {
    hosts.push_back(std::make_unique<SinkHost>(&net, h));
  }
  Packet note = MakeEthernetPacket(0x77, kBroadcastMac, kEtherTypeDumbNet,
                                   PortEventPayload{0x99, 3, false, 3, 1, 0});
  note.pkt_id = 0x5EED;
  PooledPacket copy = net.packet_pool().Park(std::move(note));
  PooledPacket sibling = copy.Share();  // still in flight elsewhere
  sw.Receive(std::move(copy), PortNum{1});
  EXPECT_EQ(sw.stats().notifications_relayed, 1u);
  EXPECT_EQ(sibling->As<PortEventPayload>()->hops_left, 3) << "the sibling was written";
  EXPECT_FALSE(sibling.shared());

  sim.RunUntil(Us(1));  // the flood ran; its copies are on the wire
  const Network::PacketPoolStats mid = net.packet_pool_stats();
  EXPECT_EQ(mid.descriptors_live, 2u);
  EXPECT_EQ(mid.bodies_live, 2u) << "the sibling's body and the relay's one";
  sim.Run();
  EXPECT_TRUE(hosts[0]->received.empty());
  for (uint32_t h : {1u, 2u}) {
    ASSERT_EQ(hosts[h]->received.size(), 1u) << "host " << h;
    EXPECT_EQ(hosts[h]->received[0].As<PortEventPayload>()->hops_left, 2);
    EXPECT_EQ(hosts[h]->received[0].pkt_id, 0x5EEDu);
  }
  EXPECT_EQ(sibling->As<PortEventPayload>()->hops_left, 3);
}

// An alarm's first flood is unstamped, so each port's copy gets its own id;
// the switches that relay a copy keep its id on every port they flood.
TEST(DumbSwitchTest, AlarmCopiesGetDistinctIdsAndRelaysKeepThem) {
  // Hub S0 with leaves S1..S3 on its ports 1..3 (each on its own port 1), two
  // hosts on each leaf's ports 2 and 3, and host H6 on S0's port 4.
  Topology topo;
  topo.AddSwitch(8);
  for (uint32_t leaf = 1; leaf <= 3; ++leaf) {
    topo.AddSwitch(8);
    topo.ConnectSwitches(0, static_cast<PortNum>(leaf), leaf, 1).value();
  }
  for (uint32_t leaf = 1; leaf <= 3; ++leaf) {
    topo.AttachHost(topo.AddHost(), leaf, 2).value();
    topo.AttachHost(topo.AddHost(), leaf, 3).value();
  }
  const uint32_t h6 = topo.AddHost();
  topo.AttachHost(h6, 0, 4).value();
  Simulator sim;
  Network net(&sim, &topo);
  std::vector<std::unique_ptr<DumbSwitch>> switches;
  for (uint32_t s = 0; s < 4; ++s) {
    switches.push_back(std::make_unique<DumbSwitch>(&net, s));
  }
  std::vector<std::unique_ptr<SinkHost>> hosts;
  for (uint32_t h = 0; h <= h6; ++h) {
    hosts.push_back(std::make_unique<SinkHost>(&net, h));
  }
  topo.SetLinkUp(topo.host_at(h6).link, false);  // S0 alarms on port 4
  sim.Run();
  EXPECT_EQ(switches[0]->stats().notifications_sent, 1u);
  std::vector<uint64_t> ids;
  for (uint32_t leaf = 1; leaf <= 3; ++leaf) {
    EXPECT_EQ(switches[leaf]->stats().notifications_relayed, 1u) << "leaf " << leaf;
    const std::vector<Packet>& a = hosts[2 * (leaf - 1)]->received;
    const std::vector<Packet>& b = hosts[2 * (leaf - 1) + 1]->received;
    ASSERT_EQ(a.size(), 1u);
    ASSERT_EQ(b.size(), 1u);
    EXPECT_NE(a[0].pkt_id, 0u);
    EXPECT_EQ(a[0].pkt_id, b[0].pkt_id) << "a relay keeps the copy's id on every port";
    ids.push_back(a[0].pkt_id);
  }
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_NE(ids[0], ids[2]);
  EXPECT_NE(ids[1], ids[2]);
}

}  // namespace
}  // namespace dumbnet
