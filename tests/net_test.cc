// Tests of the packet model and the simulated network fabric (links, queues,
// drops, timing, port-change notifications).
#include <gtest/gtest.h>

#include <memory>

#include "src/analysis/contracts.h"
#include "src/host/host_agent.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/switch/dumb_switch.h"

namespace dumbnet {
namespace {

TEST(PacketTest, WireSizeAccounting) {
  Packet pkt = MakeDumbNetPacket(1, 2, {1, 2, 3}, DataPayload{0, 0, 0, false, 1000});
  // 14 eth + 4 tags (3 + ø) + 1000 payload.
  EXPECT_EQ(pkt.WireSize(), 14 + 4 + 1000);
  EXPECT_EQ(pkt.tags.back(), kPathEndTag);

  Packet eth = MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{0, 0, 0, false, 500});
  EXPECT_EQ(eth.WireSize(), 14 + 500);
  EXPECT_TRUE(eth.tags.empty());
}

TEST(PacketTest, ControlPayloadSizesScaleWithContent) {
  WirePathGraph small;
  small.links.resize(2);
  WirePathGraph big;
  big.links.resize(50);
  Packet a = MakeDumbNetPacket(1, 2, {1},
                               PathResponsePayload{2, {}, std::make_shared<WirePathGraph>(small)});
  Packet b = MakeDumbNetPacket(1, 2, {1},
                               PathResponsePayload{2, {}, std::make_shared<WirePathGraph>(big)});
  EXPECT_GT(b.WireSize(), a.WireSize());
}

TEST(PacketTest, DescribeNamesPayloads) {
  Packet pkt = MakeDumbNetPacket(1, 2, {3}, ProbePayload{});
  EXPECT_NE(pkt.Describe().find("probe"), std::string::npos);
  Packet ack = MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{0, 0, 0, true, 64});
  EXPECT_NE(ack.Describe().find("ack"), std::string::npos);
}

TEST(PacketTest, AsReturnsTypedPayload) {
  Packet pkt = MakeDumbNetPacket(1, 2, {3}, IdReplyPayload{7, 99});
  ASSERT_NE(pkt.As<IdReplyPayload>(), nullptr);
  EXPECT_EQ(pkt.As<IdReplyPayload>()->switch_uid, 99u);
  EXPECT_EQ(pkt.As<DataPayload>(), nullptr);
}

// Every in-flight copy and every pooled packet-carrying event pays for each
// byte of Packet: keep it within 136 bytes.
static_assert(sizeof(Packet) <= 136, "Packet outgrew its 136-byte budget");
// Events and FIFO descriptors (<= 32 B, asserted in flight_queue.h) hold a
// packet through one pointer-sized handle to its body.
static_assert(sizeof(PooledPacket) == sizeof(void*), "PooledPacket is one pointer");
static_assert(sizeof(PacketPool::Body) <= 152, "a packet body outgrew 152 bytes");

TEST(PacketTest, ArmedProvenanceCopiesAreDeep) {
  Packet original = MakeDumbNetPacket(1, 2, {1, 2}, DataPayload{});
  original.provenance.Arm({0xA, 0xB});
  original.provenance.AddHop({0xA, 1, 2});
  Packet copy = original;
  copy.provenance.AddHop({0xB, 2, 0});
  EXPECT_EQ(original.provenance.hops().size(), 1u);
  EXPECT_EQ(copy.provenance.hops().size(), 2u);
  EXPECT_EQ(copy.provenance.promised(), original.provenance.promised());
  Packet assigned;
  assigned = copy;
  assigned.provenance.Clear();
  EXPECT_TRUE(copy.provenance.armed());
  EXPECT_FALSE(assigned.provenance.armed());
}

TEST(PacketTest, UnarmedProvenanceAllocatesNothing) {
  EXPECT_EQ(sizeof(telemetry::PathProvenance), sizeof(void*));
  Packet pkt = MakeEthernetPacket(1, 2, kEtherTypeDumbNet, DataPayload{});
  EXPECT_FALSE(pkt.provenance.armed());
  EXPECT_TRUE(pkt.provenance.promised().empty());
  EXPECT_TRUE(pkt.provenance.hops().empty());
  pkt.provenance.Arm({});
  EXPECT_FALSE(pkt.provenance.armed()) << "an empty promise arms nothing";
  // A tag-less packet owns no heap memory unless its provenance is armed.
  contracts::SetEnabled(true);
  const uint64_t before = contracts::Counters().hot_allocs;
  {
    DN_HOT_SCOPE("test.unarmed_copy");
    Packet copy = pkt;
    Packet moved = std::move(copy);
    (void)moved;
  }
  const uint64_t unarmed = contracts::Counters().hot_allocs - before;
  pkt.provenance.Arm({0xA});
  {
    DN_HOT_SCOPE("test.armed_copy");
    Packet copy = pkt;
    (void)copy;
  }
  const uint64_t armed = contracts::Counters().hot_allocs - before - unarmed;
  contracts::SetEnabled(false);
  EXPECT_EQ(unarmed, 0u);
  EXPECT_GT(armed, 0u) << "the counter must see the armed copy's record";
}

// One link between two registered sink nodes.
class NetFixture : public ::testing::Test {
 protected:
  class Sink : public NetNode {
   public:
    void HandlePacket(const Packet& pkt, PortNum in_port) override {
      packets.push_back({pkt, in_port});
      arrival_times.push_back(sim_->Now());
    }
    void HandlePortChange(PortNum port, bool up) override {
      port_changes.push_back({port, up});
    }
    Simulator* sim_ = nullptr;
    std::vector<std::pair<Packet, PortNum>> packets;
    std::vector<TimeNs> arrival_times;
    std::vector<std::pair<PortNum, bool>> port_changes;
  };

  void SetUp() override {
    s0_ = topo_.AddSwitch(4);
    s1_ = topo_.AddSwitch(4);
    li_ = topo_.ConnectSwitches(s0_, 1, s1_, 2, /*bandwidth_gbps=*/10.0).value();
    net_ = std::make_unique<Network>(&sim_, &topo_);
    sink0_.sim_ = &sim_;
    sink1_.sim_ = &sim_;
    net_->RegisterSwitchNode(s0_, &sink0_);
    net_->RegisterSwitchNode(s1_, &sink1_);
  }

  Topology topo_;
  Simulator sim_;
  std::unique_ptr<Network> net_;
  uint32_t s0_ = 0, s1_ = 0;
  LinkIndex li_ = 0;
  Sink sink0_, sink1_;
};

TEST_F(NetFixture, DeliversWithSerializationAndPropagation) {
  Packet pkt = MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{0, 0, 0, false, 1186});
  // wire = 14 + 1186 = 1200 bytes @10 Gbps = 960 ns + 500 ns propagation.
  net_->SendFromSwitch(s0_, 1, pkt);
  sim_.Run();
  ASSERT_EQ(sink1_.packets.size(), 1u);
  EXPECT_EQ(sink1_.packets[0].second, 2);  // arrives on S1 port 2
  EXPECT_EQ(sink1_.arrival_times[0], 960 + 500);
}

TEST_F(NetFixture, BackToBackPacketsQueue) {
  for (int i = 0; i < 3; ++i) {
    net_->SendFromSwitch(s0_, 1,
                         MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{0, 0, 0, false, 1186}));
  }
  sim_.Run();
  ASSERT_EQ(sink1_.packets.size(), 3u);
  // Serialization spaces arrivals by exactly one transmit time (960 ns).
  EXPECT_EQ(sink1_.arrival_times[1] - sink1_.arrival_times[0], 960);
  EXPECT_EQ(sink1_.arrival_times[2] - sink1_.arrival_times[1], 960);
}

TEST_F(NetFixture, QueueOverflowDrops) {
  NetworkConfig config;
  config.queue_capacity_bytes = 3000;  // fits two 1200-byte frames only
  net_ = std::make_unique<Network>(&sim_, &topo_, config);
  net_->RegisterSwitchNode(s1_, &sink1_);
  for (int i = 0; i < 5; ++i) {
    net_->SendFromSwitch(s0_, 1,
                         MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{0, 0, 0, false, 1186}));
  }
  sim_.Run();
  EXPECT_EQ(sink1_.packets.size(), 2u);
  EXPECT_EQ(net_->stats().dropped_queue_full, 3u);
}

TEST_F(NetFixture, DownLinkDropsAndNotifies) {
  topo_.SetLinkUp(li_, false);
  net_->SendFromSwitch(s0_, 1, MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{}));
  sim_.Run();
  EXPECT_TRUE(sink1_.packets.empty());
  EXPECT_EQ(net_->stats().dropped_link_down, 1u);
  // Both endpoints heard the port change after the detection delay.
  ASSERT_EQ(sink0_.port_changes.size(), 1u);
  ASSERT_EQ(sink1_.port_changes.size(), 1u);
  EXPECT_EQ(sink0_.port_changes[0], (std::pair<PortNum, bool>{1, false}));
  EXPECT_EQ(sink1_.port_changes[0], (std::pair<PortNum, bool>{2, false}));
}

TEST_F(NetFixture, UnwiredPortCountsDrop) {
  net_->SendFromSwitch(s0_, 3, MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{}));
  sim_.Run();
  EXPECT_EQ(net_->stats().dropped_unwired, 1u);
}

TEST_F(NetFixture, QueueBacklogVisible) {
  for (int i = 0; i < 4; ++i) {
    net_->SendFromSwitch(s0_, 1,
                         MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{0, 0, 0, false, 1186}));
  }
  // Before any virtual time passes, all four frames are queued.
  EXPECT_EQ(net_->QueueBacklog(li_, NodeId::Switch(s0_)), 4 * 1200);
  EXPECT_EQ(net_->QueueBacklog(li_, NodeId::Switch(s1_)), 0);  // other direction idle
  sim_.Run();
  EXPECT_EQ(net_->QueueBacklog(li_, NodeId::Switch(s0_)), 0);
}

TEST_F(NetFixture, BothDirectionsIndependent) {
  net_->SendFromSwitch(s0_, 1, MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{}));
  net_->SendFromSwitch(s1_, 2, MakeEthernetPacket(2, 1, kEtherTypeIpv4, DataPayload{}));
  sim_.Run();
  EXPECT_EQ(sink0_.packets.size(), 1u);
  EXPECT_EQ(sink1_.packets.size(), 1u);
}

TEST_F(NetFixture, BurstOnOneDirectionQueuesOneDeliveryEvent) {
  constexpr uint64_t kBurst = 40;  // more than one pool chunk of nodes
  for (uint64_t i = 0; i < kBurst; ++i) {
    net_->SendFromSwitch(s0_, 1,
                         MakeEthernetPacket(1, 2, kEtherTypeIpv4,
                                            DataPayload{i, 0, 0, false, 1186}));
  }
  // Only the direction's earliest delivery sits in the timer wheel.
  EXPECT_EQ(sim_.mem_stats().queued_events, 1u);
  EXPECT_EQ(sim_.Run(), kBurst);
  ASSERT_EQ(sink1_.packets.size(), kBurst);
  for (uint64_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(sink1_.packets[i].first.As<DataPayload>()->flow_id, i);
    // 1200 bytes serialize in 960 ns, then 500 ns of propagation.
    EXPECT_EQ(sink1_.arrival_times[i], static_cast<TimeNs>(960 * (i + 1) + 500));
  }
  EXPECT_EQ(sim_.mem_stats().queued_events, 0u);
}

TEST_F(NetFixture, PacketsInFlightSurviveLinkFailure) {
  for (int i = 0; i < 3; ++i) {
    net_->SendFromSwitch(s0_, 1,
                         MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{0, 0, 0, false, 1186}));
  }
  // The cable dies after the link admitted the frames: they still arrive, as
  // they always have in this model; only later transmits see the dead link.
  sim_.RunUntil(100);
  topo_.SetLinkUp(li_, false);
  net_->SendFromSwitch(s0_, 1, MakeEthernetPacket(1, 2, kEtherTypeIpv4, DataPayload{}));
  sim_.Run();
  EXPECT_EQ(sink1_.packets.size(), 3u);
  EXPECT_EQ(sink1_.arrival_times.back(), 3 * 960 + 500);
  EXPECT_EQ(net_->stats().dropped_link_down, 1u);
}

TEST_F(NetFixture, EqualArrivalsKeepTransmitOrder) {
  // 1 Tb/s: a 78-byte frame serializes in under a nanosecond, so back-to-back
  // frames arrive at the same instant and leave the FIFO's ascending order.
  Topology topo;
  const uint32_t a = topo.AddSwitch(2);
  const uint32_t b = topo.AddSwitch(2);
  topo.ConnectSwitches(a, 1, b, 1, /*bandwidth_gbps=*/1000.0).value();
  Simulator sim;
  Network net(&sim, &topo);
  Sink sink;
  sink.sim_ = &sim;
  net.RegisterSwitchNode(b, &sink);
  for (uint64_t i = 0; i < 3; ++i) {
    net.SendFromSwitch(a, 1, MakeEthernetPacket(1, 2, kEtherTypeIpv4,
                                                DataPayload{i, 0, 0, false, 64}));
  }
  // Scheduled after all three transmits, so it must run after all three
  // deliveries of the same instant.
  size_t delivered_before = 0;
  sim.ScheduleAt(500, [&] { delivered_before = sink.packets.size(); });
  EXPECT_EQ(sim.Run(), 4u);
  EXPECT_EQ(delivered_before, 3u);
  ASSERT_EQ(sink.packets.size(), 3u);
  for (uint64_t i = 0; i < 3; ++i) {
    EXPECT_EQ(sink.packets[i].first.As<DataPayload>()->flow_id, i);
    EXPECT_EQ(sink.arrival_times[i], 500);
  }
}

// Copy-on-write: Share() hands out another handle to one body, and Mutable()
// clones only a body that another handle still holds.
TEST(PacketPoolTest, MutableClonesOnlyASharedBody) {
  Topology topo;
  Simulator sim;
  Network net(&sim, &topo);
  PacketPool& pool = net.packet_pool();
  PooledPacket a = pool.Park(MakeEthernetPacket(1, 2, kEtherTypeDumbNet, DataPayload{}));
  EXPECT_FALSE(a.shared());
  Packet* body = &a.Mutable();
  EXPECT_EQ(&*a, body) << "an unshared body is written in place";
  PooledPacket b = a.Share();
  EXPECT_TRUE(a.shared());
  EXPECT_EQ(&*b, body);
  EXPECT_EQ(net.packet_pool_stats().bodies_live, 1u);
  b.Mutable().eth.src_mac = 7;
  EXPECT_NE(&*b, body) << "a shared body is cloned before the write";
  EXPECT_EQ(a->eth.src_mac, 1u);
  EXPECT_EQ(b->eth.src_mac, 7u);
  EXPECT_FALSE(a.shared());
  EXPECT_EQ(net.packet_pool_stats().bodies_live, 2u);
  a.Reset();
  b = PooledPacket();
  EXPECT_EQ(net.packet_pool_stats().bodies_live, 0u);
  EXPECT_EQ(net.packet_pool_stats().bodies_peak, 2u);
}

// Packets held by pooled events (host send, switch forward, flood, host
// deliver) and on the wire, when the simulator holding those events goes away
// first: every body the events held comes back to its pool, and the bodies
// the FIFOs' descriptors hold (one shared by a flood's two copies) stay with
// the network.
TEST(PacketPoolTest, EventsDestroyedUnrunReturnEveryNode) {
  // H0 - S0 - H1, 10 Gb/s, default 2 us host processing and 500 ns forwarding.
  Topology topo;
  topo.AddSwitch(4);
  const uint32_t h0 = topo.AddHost();
  const uint32_t h1 = topo.AddHost();
  topo.AttachHost(h0, 0, 1).value();
  topo.AttachHost(h1, 0, 2).value();
  auto sim = std::make_unique<Simulator>();
  Network net(sim.get(), &topo);
  DumbSwitch sw(&net, 0);
  HostAgent sender(&net, h0);
  HostAgent receiver(&net, h1);
  uint64_t received = 0;
  receiver.SetDataHandler([&](const Packet&, const DataPayload&) { ++received; });

  // 40 frames of 1,514 bytes leave H0 2 us after this, one per ~1.2 us: at
  // 20 us some are still on H0's link, some wait in S0's forward events, some
  // on S0's link and some in H1's deliver events.
  constexpr int kFrames = 40;
  for (int i = 0; i < kFrames; ++i) {
    sender.SendTags({2}, receiver.mac(), DataPayload{0, static_cast<uint64_t>(i), 0, false, 1500});
  }
  sim->RunUntil(Us(20));
  // A stamped notification relayed by S0 from its unwired port 3: after the
  // forwarding delay, its flood puts one shared body on both host links (the
  // copy to H1 queues behind the frames).
  Packet note = MakeEthernetPacket(0x77, kBroadcastMac, kEtherTypeDumbNet,
                                   PortEventPayload{0x99, 3, false, 2, 1, 0});
  note.pkt_id = 0x1D;
  sw.HandlePacket(std::move(note), PortNum{3});
  sim->RunUntil(Us(20) + 510);
  // And one that waits in H0's send event.
  sender.SendTags({2}, receiver.mac(), DataPayload{});

  const Network::PacketPoolStats mid = net.packet_pool_stats();
  EXPECT_GT(received, 0u);
  EXPECT_LT(received, static_cast<uint64_t>(kFrames));
  EXPECT_GT(sw.stats().forwarded, received);
  EXPECT_EQ(sw.stats().notifications_relayed, 1u);
  // Bodies: every frame not yet received, and the flood's one.
  EXPECT_EQ(mid.bodies_live, static_cast<size_t>(kFrames + 1) - received + 1);
  EXPECT_EQ(mid.handles_live, mid.bodies_live + 1) << "the flood's two copies share one body";
  // Descriptors: the frames on the wire and the flood's two copies.
  ASSERT_GT(mid.descriptors_live, 2u) << "frames on the wire";
  const size_t frames_on_wire = mid.descriptors_live - 2;
  EXPECT_GE(mid.bodies_live - 1 - frames_on_wire, 3u)
      << "host send, switch forward and host deliver events";

  sim.reset();  // destroys every pending event without running it
  const Network::PacketPoolStats after = net.packet_pool_stats();
  EXPECT_EQ(after.bodies, mid.bodies);
  EXPECT_EQ(after.descriptors, mid.descriptors);
  // Only the packets still on the wire hold descriptors and bodies; they go
  // with the network.
  EXPECT_EQ(after.descriptors_live, mid.descriptors_live);
  EXPECT_EQ(after.bodies_live, frames_on_wire + 1);
}

}  // namespace
}  // namespace dumbnet
