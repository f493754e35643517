// Tests for the software extensions (paper Section 6): flowlet TE, the layer-3
// router, and network virtualization.
#include <gtest/gtest.h>

#include "src/ext/flowlet.h"
#include "src/ext/l3_router.h"
#include "src/ext/virtualization.h"
#include "src/topo/generators.h"
#include "tests/test_fabric.h"

namespace dumbnet {
namespace {

TEST(FlowletTest, GapStartsNewFlowlet) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  TestFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(25);

  FlowletConfig config;
  config.gap = Ms(1);
  FlowletRouter te(&fabric.agent(0), config);
  uint64_t dst = fabric.agent(12).mac();

  // Back-to-back packets: one flowlet.
  ASSERT_TRUE(te.Send(dst, 7, DataPayload{}).ok());
  ASSERT_TRUE(te.Send(dst, 7, DataPayload{}).ok());
  fabric.Run();
  EXPECT_EQ(te.FlowletIdOf(7), 0u);

  // Wait past the gap: next packet is a new flowlet.
  fabric.RunUntil(fabric.Now() + Ms(5));
  ASSERT_TRUE(te.Send(dst, 7, DataPayload{}).ok());
  fabric.Run();
  EXPECT_EQ(te.FlowletIdOf(7), 1u);
  EXPECT_EQ(te.stats().flowlets_started, 2u);
}

TEST(FlowletTest, FlowletsSpreadOverEqualCostPaths) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  TestFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(25);

  FlowletConfig config;
  config.gap = Us(100);
  FlowletRouter te(&fabric.agent(0), config);
  uint64_t dst_mac = fabric.agent(12).mac();

  // Warm the cache.
  ASSERT_TRUE(te.Send(dst_mac, 5, DataPayload{}).ok());
  fabric.Run();

  // Many flowlets of the same flow: record which first-hop tag each uses.
  std::set<uint8_t> first_tags;
  for (int i = 0; i < 32; ++i) {
    fabric.RunUntil(fabric.Now() + Ms(1));  // exceed the gap
    ASSERT_TRUE(te.Send(dst_mac, 5, DataPayload{}).ok());
    fabric.Run();
    const PathTableEntry* entry = fabric.agent(0).path_table().Find(dst_mac);
    ASSERT_NE(entry, nullptr);
    auto binding = entry->flow_binding.find(5);
    ASSERT_NE(binding, entry->flow_binding.end());
    first_tags.insert(entry->paths[binding->second].tags[0]);
  }
  // Two spines: both uplink tags must have been used.
  EXPECT_EQ(first_tags.size(), 2u);
}

TEST(L3RouterTest, ForwardsAcrossSubnets) {
  // Two independent DumbNet subnets, one router host in each (the same logical
  // router node owns both agents).
  LeafSpineConfig cfg_a{1, 2, 3, 16, 10.0, 10.0, /*id_space=*/0};
  LeafSpineConfig cfg_b{1, 2, 3, 16, 10.0, 10.0, /*id_space=*/1};
  auto net_a = MakeLeafSpine(cfg_a);
  auto net_b = MakeLeafSpine(cfg_b);
  ASSERT_TRUE(net_a.ok());
  ASSERT_TRUE(net_b.ok());
  TestFabric fab_a(std::move(net_a.value().topo));
  TestFabric fab_b(std::move(net_b.value().topo));
  fab_a.BringUpAdopted(0);
  fab_b.BringUpAdopted(0);

  // Router = host 5 in subnet A + host 5 in subnet B.
  Layer3Router router;
  router.AttachSubnet(1, &fab_a.agent(5));
  router.AttachSubnet(2, &fab_b.agent(5));
  for (uint32_t h = 0; h < fab_b.host_count(); ++h) {
    router.AddHostRoute(fab_b.agent(h).mac(), 2);
  }
  for (uint32_t h = 0; h < fab_a.host_count(); ++h) {
    router.AddHostRoute(fab_a.agent(h).mac(), 1);
  }

  int received = 0;
  fab_b.agent(2).SetDataHandler([&](const Packet&, const DataPayload& d) {
    EXPECT_EQ(d.flow_id, 77u);
    ++received;
  });

  // Host 1 in subnet A sends to host 2 in subnet B via the router.
  DataPayload payload;
  payload.flow_id = 77;
  payload.inner_dst_mac = fab_b.agent(2).mac();
  ASSERT_TRUE(fab_a.agent(1).Send(fab_a.agent(5).mac(), 77, payload).ok());
  // Two decoupled simulators: run A (delivers to router), then B (relays).
  fab_a.Run();
  fab_b.Run();

  EXPECT_EQ(received, 1);
  EXPECT_EQ(router.stats().forwarded, 1u);
}

TEST(L3RouterTest, NoRouteCounted) {
  auto net_a = MakeLeafSpine(LeafSpineConfig{1, 1, 3, 16, 10.0, 10.0});
  ASSERT_TRUE(net_a.ok());
  TestFabric fab_a(std::move(net_a.value().topo));
  fab_a.BringUpAdopted(0);
  Layer3Router router;
  router.AttachSubnet(1, &fab_a.agent(2));

  DataPayload payload;
  payload.inner_dst_mac = 0xDEAD;
  ASSERT_TRUE(fab_a.agent(1).Send(fab_a.agent(2).mac(), 1, payload).ok());
  fab_a.Run();
  EXPECT_EQ(router.stats().no_route, 1u);
}

// --- Virtualization -------------------------------------------------------------

class VirtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Diamond of switches 100..103 with two hosts.
    WirePathGraph g;
    g.src_uid = 100;
    g.dst_uid = 103;
    g.links = {WireLink{100, 1, 101, 1}, WireLink{101, 2, 103, 1},
               WireLink{100, 2, 102, 1}, WireLink{102, 2, 103, 2}};
    ASSERT_TRUE(db_.MergePathGraph(g).ok());
    db_.UpsertHost(HostLocation{50, 100, 7});
    db_.UpsertHost(HostLocation{51, 103, 7});
    db_.UpsertHost(HostLocation{52, 102, 7});
    graph_ = g;
  }

  TopoDb db_;
  WirePathGraph graph_;
};

TEST_F(VirtTest, FilterViewHidesForbiddenSwitches) {
  VirtualNetwork tenant({100, 101, 103}, {50, 51});
  TopoDb view = tenant.FilterView(db_);
  EXPECT_TRUE(view.KnowsSwitch(100));
  EXPECT_TRUE(view.KnowsSwitch(101));
  EXPECT_FALSE(view.KnowsSwitch(102));
  EXPECT_TRUE(view.LocateHost(50).ok());
  EXPECT_FALSE(view.LocateHost(52).ok());  // host on a hidden switch
  // Links touching 102 are gone.
  EXPECT_FALSE(view.LinkAt(100, 2).ok());
  EXPECT_TRUE(view.LinkAt(100, 1).ok());
}

TEST_F(VirtTest, FilterPathGraphDropsForbiddenParts) {
  VirtualNetwork tenant({100, 101, 103}, {50, 51});
  auto filtered = tenant.FilterPathGraph(graph_);
  ASSERT_TRUE(filtered.ok());
  // The two links through 102 are gone; 100-101-103 still connects src to dst.
  EXPECT_EQ(filtered.value().links,
            (std::vector<WireLink>{WireLink{100, 1, 101, 1}, WireLink{101, 2, 103, 1}}));
}

TEST_F(VirtTest, FilterPathGraphRejectsASliceThatDisconnectsDst) {
  // Both endpoints are in the slice, but every link between them is not.
  VirtualNetwork tenant({100, 103}, {50, 51});
  EXPECT_EQ(tenant.FilterPathGraph(graph_).error().code(), ErrorCode::kUnavailable);
}

TEST_F(VirtTest, TenantPathVerification) {
  VirtualizationService service;
  service.RegisterTenant(1, VirtualNetwork({100, 101, 103}, {50, 51}));

  EXPECT_TRUE(service.VerifyTenantPath(1, db_, {100, 101, 103}).ok());
  // Escaping the slice through 102 is denied even though the path is physically
  // valid.
  EXPECT_EQ(service.VerifyTenantPath(1, db_, {100, 102, 103}).error().code(),
            ErrorCode::kPermissionDenied);
  EXPECT_EQ(service.VerifyTenantPath(9, db_, {100, 101, 103}).error().code(),
            ErrorCode::kNotFound);
}

TEST_F(VirtTest, EndpointOutsideSliceRejected) {
  VirtualNetwork tenant({101, 103}, {51});
  EXPECT_EQ(tenant.FilterPathGraph(graph_).error().code(), ErrorCode::kPermissionDenied);
}

}  // namespace
}  // namespace dumbnet
