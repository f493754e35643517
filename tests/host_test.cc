// Unit tests for the host-side building blocks: PathTable, TopoCache, PathVerifier,
// and HostAgent behaviours that do not need a controller.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <thread>

#include "src/host/host_agent.h"
#include "src/host/path_table.h"
#include "src/host/path_verifier.h"
#include "src/host/topo_cache.h"
#include "src/routing/graph.h"
#include "src/routing/shortest_path.h"
#include "src/topo/generators.h"
#include "tests/test_fabric.h"

namespace dumbnet {
namespace {

CachedRoute Route(std::vector<uint64_t> uids, TagList tags) {
  CachedRoute r;
  r.uid_path = std::move(uids);
  r.tags = std::move(tags);
  return r;
}

PathTableEntry TwoPathEntry() {
  PathTableEntry entry;
  entry.dst = HostLocation{99, 30, 5};
  entry.paths.push_back(Route({10, 20, 30}, {1, 2, 5}));
  entry.paths.push_back(Route({10, 21, 30}, {2, 2, 5}));
  return entry;
}

TEST(PathTableTest, FlowBindingIsSticky) {
  PathTable table(1);
  table.Install(99, TwoPathEntry());
  auto first = table.RouteFor(99, 7);
  ASSERT_TRUE(first.ok());
  for (int i = 0; i < 10; ++i) {
    auto again = table.RouteFor(99, 7);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.value()->uid_path, first.value()->uid_path);
  }
  EXPECT_EQ(table.stats().hits, 11u);
}

TEST(PathTableTest, DifferentFlowsSpread) {
  PathTable table(1);
  table.Install(99, TwoPathEntry());
  std::set<TagList> used;
  for (uint64_t flow = 0; flow < 64; ++flow) {
    used.insert(table.RouteFor(99, flow).value()->tags);
  }
  EXPECT_EQ(used.size(), 2u);  // both equal-cost paths get traffic
}

TEST(PathTableTest, MissCounts) {
  PathTable table(1);
  EXPECT_FALSE(table.RouteFor(12345, 1).ok());
  EXPECT_EQ(table.stats().misses, 1u);
}

TEST(PathTableTest, InvalidateEdgeReportsStarvedDestinations) {
  PathTable table(1);
  table.Install(99, TwoPathEntry());
  table.Install(98, TwoPathEntry());
  ASSERT_TRUE(table.RouteFor(99, 7).ok());
  // Kill edge 10-20: one path survives, so nothing starves and flows rebind.
  auto starved = table.InvalidateEdge(10, 20);
  EXPECT_TRUE(starved.empty());
  const PathTableEntry* entry = table.Find(99);
  ASSERT_NE(entry, nullptr);
  ASSERT_EQ(entry->paths.size(), 1u);
  EXPECT_EQ(entry->paths[0].uid_path, (std::vector<uint64_t>{10, 21, 30}));
  EXPECT_TRUE(entry->flow_binding.empty());
  EXPECT_EQ(table.RouteFor(99, 7).value()->uid_path, entry->paths[0].uid_path);

  // Kill edge 10-21 too: both destinations are left with no route, reported in
  // ascending MAC order for the caller to recompute or re-query.
  starved = table.InvalidateEdge(21, 10);
  EXPECT_EQ(starved, (std::vector<uint64_t>{98, 99}));
  EXPECT_TRUE(table.Find(99)->paths.empty());
  const uint64_t misses = table.stats().misses;
  EXPECT_FALSE(table.RouteFor(99, 7).ok());
  EXPECT_EQ(table.stats().misses, misses + 1);
}

TEST(PathTableTest, ChooserOverridesDefault) {
  PathTable table(1);
  table.Install(99, TwoPathEntry());
  table.SetRouteChooser([](const PathTableEntry&, uint64_t) -> size_t { return 1; });
  for (uint64_t flow = 0; flow < 8; ++flow) {
    EXPECT_EQ(table.RouteFor(99, flow).value()->uid_path[1], 21u);
  }
}

TEST(PathTableTest, UsesEdgeIsUndirected) {
  CachedRoute r = Route({1, 2, 3}, {});
  EXPECT_TRUE(r.UsesEdge(1, 2));
  EXPECT_TRUE(r.UsesEdge(2, 1));
  EXPECT_TRUE(r.UsesEdge(3, 2));
  EXPECT_FALSE(r.UsesEdge(1, 3));
}

// --- TopoCache -----------------------------------------------------------------

// Marks a cached link the way the host agent does: resolve the attach point to
// a cached edge, then set the link's state in the cache's database.
void MarkLink(TopoCache& cache, uint64_t switch_uid, PortNum port, bool up) {
  ASSERT_TRUE(cache.ResolveEdge(switch_uid, port).ok());
  cache.db().SetLinkState(switch_uid, port, up);
}

WirePathGraph DiamondGraph() {
  // Switch uids 100,101,102,103; two 2-hop routes 100-101-103 / 100-102-103.
  WirePathGraph g;
  g.src_uid = 100;
  g.dst_uid = 103;
  g.links = {WireLink{100, 1, 101, 1}, WireLink{101, 2, 103, 1},
             WireLink{100, 2, 102, 1}, WireLink{102, 2, 103, 2}};
  return g;
}

TEST(TopoCacheTest, IntegrateAndComputeRoutes) {
  TopoCache cache;
  ASSERT_TRUE(cache.Integrate(DiamondGraph(), HostLocation{55, 103, 7}).ok());
  auto routes = cache.ComputeRoutes(100, 55, 4);
  ASSERT_TRUE(routes.ok());
  EXPECT_EQ(routes.value().size(), 2u);
  for (const CachedRoute& r : routes.value()) {
    EXPECT_EQ(r.uid_path.size(), 3u);
    EXPECT_EQ(r.tags.size(), 3u);
    EXPECT_EQ(r.tags.back(), 7);  // final hop to the host
  }
}

TEST(TopoCacheTest, MarkLinkDownReroutes) {
  TopoCache cache;
  ASSERT_TRUE(cache.Integrate(DiamondGraph(), HostLocation{55, 103, 7}).ok());
  auto edge = cache.ResolveEdge(101, 2);
  ASSERT_TRUE(edge.ok());
  EXPECT_EQ(std::min(edge.value().first, edge.value().second), 101u);
  MarkLink(cache, 101, 2, false);
  auto routes = cache.ComputeRoutes(100, 55, 4);
  ASSERT_TRUE(routes.ok());
  ASSERT_EQ(routes.value().size(), 1u);
  EXPECT_EQ(routes.value()[0].uid_path, (std::vector<uint64_t>{100, 102, 103}));
}

TEST(TopoCacheTest, UnknownAttachPointDoesNotResolve) {
  TopoCache cache;
  ASSERT_TRUE(cache.Integrate(DiamondGraph(), HostLocation{55, 103, 7}).ok());
  EXPECT_FALSE(cache.ResolveEdge(999, 1).ok());
  EXPECT_FALSE(cache.ResolveEdge(100, 9).ok());
}

// A path graph without detours: the links of the primary 100-101-103 and of a
// longer, link-disjoint backup 100-102-104-103.
WirePathGraph PrimaryAndBackupGraph() {
  WirePathGraph g;
  g.src_uid = 100;
  g.dst_uid = 103;
  g.links = {WireLink{100, 1, 101, 1}, WireLink{101, 2, 103, 1},
             WireLink{100, 2, 102, 1}, WireLink{102, 2, 104, 1},
             WireLink{104, 2, 103, 2}};
  return g;
}

// A k=1 entry whose primary dies is starved in the PathTable, and the TopoCache
// recomputes it over the backup's links, which the merge brought in.
TEST(TopoCacheTest, StarvedKOneEntryReroutesOverTheBackupsLinks) {
  const WirePathGraph graph = PrimaryAndBackupGraph();
  TopoCache cache;
  ASSERT_TRUE(cache.Integrate(graph, HostLocation{55, 103, 7}).ok());
  auto routes = cache.ComputeRoutes(100, 55, 1);
  ASSERT_TRUE(routes.ok());
  ASSERT_EQ(routes.value().size(), 1u);
  EXPECT_EQ(routes.value()[0].uid_path, (std::vector<uint64_t>{100, 101, 103}));
  PathTable table(1);
  PathTableEntry entry;
  entry.dst = HostLocation{55, 103, 7};
  entry.paths = std::move(routes.value());
  table.Install(55, std::move(entry));

  auto edge = cache.ResolveEdge(101, 2);
  ASSERT_TRUE(edge.ok());
  MarkLink(cache, 101, 2, false);
  EXPECT_EQ(table.InvalidateEdge(edge.value().first, edge.value().second),
            (std::vector<uint64_t>{55}));
  routes = cache.ComputeRoutes(100, 55, 1);
  ASSERT_TRUE(routes.ok());
  ASSERT_EQ(routes.value().size(), 1u);
  EXPECT_EQ(routes.value()[0].uid_path, (std::vector<uint64_t>{100, 102, 104, 103}));
  EXPECT_EQ(routes.value()[0].tags, (TagList{2, 2, 2, 7}));
}

TEST(TopoCacheTest, LinkAddedBackRestoresRoute) {
  TopoCache cache;
  ASSERT_TRUE(cache.Integrate(DiamondGraph(), HostLocation{55, 103, 7}).ok());
  MarkLink(cache, 101, 2, false);
  auto routes = cache.ComputeRoutes(100, 55, 4);
  ASSERT_EQ(routes.value().size(), 1u);
  // AddLink marks a pre-existing link up again, as a patch's added entry does.
  ASSERT_TRUE(cache.db().AddLink(WireLink{101, 2, 103, 1}).ok());
  routes = cache.ComputeRoutes(100, 55, 4);
  EXPECT_EQ(routes.value().size(), 2u);
}

// ComputeRoutes must equal a fresh Yen run on the cache's current mirror, with
// the tags ending at the destination's current port.
void ExpectFreshRoutes(const TopoCache& cache, uint64_t src_uid, uint64_t dst_mac) {
  const TopoDb& db = cache.db();
  auto dst = db.LocateHost(dst_mac);
  ASSERT_TRUE(dst.ok());
  auto paths = KShortestPaths(SwitchGraph(db.mirror()), db.IndexOf(src_uid).value(),
                              db.IndexOf(dst.value().switch_uid).value(), 4);
  auto routes = cache.ComputeRoutes(src_uid, dst_mac, 4);
  ASSERT_EQ(routes.ok(), paths.ok());
  if (!paths.ok()) {
    return;
  }
  ASSERT_EQ(routes.value().size(), paths.value().size());
  for (size_t i = 0; i < paths.value().size(); ++i) {
    EXPECT_EQ(routes.value()[i].uid_path, db.PathToUids(paths.value()[i]));
    EXPECT_EQ(routes.value()[i].tags.back(), dst.value().port);
  }
}

// The memoized Yen results follow every change that moves the routes: a merged
// link, a link going down and up, a second link going down, and a destination
// host moving.
TEST(TopoCacheTest, MemoizedRoutesFollowEveryCacheChange) {
  TopoCache cache;
  ASSERT_TRUE(cache.Integrate(DiamondGraph(), HostLocation{55, 103, 7}).ok());
  ExpectFreshRoutes(cache, 100, 55);
  EXPECT_EQ(cache.route_stats().ksp_runs, 1u);
  ExpectFreshRoutes(cache, 100, 55);
  EXPECT_EQ(cache.route_stats().ksp_runs, 1u);
  EXPECT_EQ(cache.route_stats().ksp_memo_hits, 1u);

  // A third way round, 100-104-103, arrives in a path graph.
  WirePathGraph detour;
  detour.src_uid = 100;
  detour.dst_uid = 103;
  detour.links = {WireLink{100, 3, 104, 1}, WireLink{104, 2, 103, 3}};
  ASSERT_TRUE(cache.Integrate(detour, HostLocation{55, 103, 7}).ok());
  ASSERT_EQ(cache.ComputeRoutes(100, 55, 4).value().size(), 3u);
  ExpectFreshRoutes(cache, 100, 55);

  MarkLink(cache, 101, 2, false);
  ASSERT_EQ(cache.ComputeRoutes(100, 55, 4).value().size(), 2u);
  ExpectFreshRoutes(cache, 100, 55);
  MarkLink(cache, 101, 2, true);
  ASSERT_EQ(cache.ComputeRoutes(100, 55, 4).value().size(), 3u);
  ExpectFreshRoutes(cache, 100, 55);

  MarkLink(cache, 102, 2, false);
  ASSERT_EQ(cache.ComputeRoutes(100, 55, 4).value().size(), 2u);
  ExpectFreshRoutes(cache, 100, 55);

  // Host moves leave the mirror's version alone: a move to another switch
  // changes the memo key, a move to another port on that switch only the tags.
  cache.UpsertHost(HostLocation{55, 104, 9});
  ASSERT_EQ(cache.ComputeRoutes(100, 55, 4).value()[0].uid_path,
            (std::vector<uint64_t>{100, 104}));
  ExpectFreshRoutes(cache, 100, 55);
  cache.UpsertHost(HostLocation{55, 104, 11});
  ASSERT_EQ(cache.ComputeRoutes(100, 55, 4).value()[0].tags.back(), 11);
  ExpectFreshRoutes(cache, 100, 55);
}

// Caches whose structures are equal share one structure, one snapshot and its
// Yen runs. A link going down in one copies only that cache's structure and
// moves it to a new snapshot; each keeps routing over its own view, and they
// share again once the views meet. A merge that teaches nothing copies nothing.
TEST(TopoCacheTest, EqualCachesShareOneSnapshotUntilALinkSplitsThem) {
  TopoCache a;
  TopoCache b;
  ASSERT_TRUE(a.Integrate(DiamondGraph(), HostLocation{55, 103, 7}).ok());
  ASSERT_TRUE(b.Integrate(DiamondGraph(), HostLocation{55, 103, 7}).ok());
  EXPECT_NE(&a.db().mirror(), &b.db().mirror());  // each merged its own copy
  ExpectFreshRoutes(a, 100, 55);
  ExpectFreshRoutes(b, 100, 55);
  EXPECT_EQ(&a.RoutingGraph(), &b.RoutingGraph());
  EXPECT_EQ(&a.db().mirror(), &b.db().mirror());  // routing interned b onto a's
  EXPECT_EQ(a.route_stats().ksp_runs, 1u);
  EXPECT_EQ(b.route_stats().ksp_runs, 0u);  // b's routes came from a's Yen run
  EXPECT_EQ(b.route_stats().ksp_memo_hits, 1u);

  const Topology* shared = &b.db().mirror();
  const std::vector<CachedRoute> b_routes = b.ComputeRoutes(100, 55, 4).value();
  MarkLink(a, 101, 2, false);
  EXPECT_NE(&a.db().mirror(), shared);
  EXPECT_EQ(&b.db().mirror(), shared);  // only the marked cache copied
  EXPECT_NE(&a.RoutingGraph(), &b.RoutingGraph());
  ASSERT_EQ(a.ComputeRoutes(100, 55, 4).value().size(), 1u);
  const std::vector<CachedRoute> b_after = b.ComputeRoutes(100, 55, 4).value();
  ASSERT_EQ(b_after.size(), b_routes.size());
  for (size_t i = 0; i < b_routes.size(); ++i) {
    EXPECT_EQ(b_after[i].uid_path, b_routes[i].uid_path);
    EXPECT_EQ(b_after[i].tags, b_routes[i].tags);
  }
  ExpectFreshRoutes(a, 100, 55);
  ExpectFreshRoutes(b, 100, 55);

  MarkLink(a, 101, 2, true);
  EXPECT_EQ(&a.RoutingGraph(), &b.RoutingGraph());
  EXPECT_EQ(&a.db().mirror(), shared);
  const uint64_t runs = a.route_stats().ksp_runs;
  ExpectFreshRoutes(a, 100, 55);
  EXPECT_EQ(a.route_stats().ksp_runs, runs);  // b's snapshot already had it

  // The second copy of a response teaches nothing: no copy, no version bump.
  const uint64_t version = a.db().version();
  ASSERT_TRUE(a.Integrate(DiamondGraph(), HostLocation{55, 103, 7}).ok());
  EXPECT_EQ(&a.db().mirror(), shared);
  EXPECT_EQ(&b.db().mirror(), shared);
  EXPECT_EQ(a.db().version(), version);
}

// Interning is per thread (the Yen memo is written without a lock), so caches
// built on two threads never share, even with equal structures.
TEST(TopoCacheTest, CachesBuiltOnTwoThreadsNeverShare) {
  TopoCache caches[2];
  std::thread builders[2];
  for (size_t i = 0; i < 2; ++i) {
    builders[i] = std::thread([&cache = caches[i]] {
      ASSERT_TRUE(cache.Integrate(DiamondGraph(), HostLocation{55, 103, 7}).ok());
      ExpectFreshRoutes(cache, 100, 55);
      MarkLink(cache, 101, 2, false);
      ExpectFreshRoutes(cache, 100, 55);
      MarkLink(cache, 101, 2, true);
      ExpectFreshRoutes(cache, 100, 55);
    });
  }
  for (std::thread& t : builders) {
    t.join();
  }
  EXPECT_NE(&caches[0].db().mirror(), &caches[1].db().mirror());
  EXPECT_NE(&caches[0].RoutingGraph(), &caches[1].RoutingGraph());
  EXPECT_EQ(caches[0].route_stats().ksp_runs, 3u);
  EXPECT_EQ(caches[1].route_stats().ksp_runs, 3u);
}

TEST(TopoCacheTest, ApproxBytesGrows) {
  TopoCache cache;
  size_t before = cache.ApproxBytes();
  ASSERT_TRUE(cache.Integrate(DiamondGraph(), HostLocation{55, 103, 7}).ok());
  EXPECT_GT(cache.ApproxBytes(), before);
}

// --- PathVerifier ----------------------------------------------------------------

class VerifierTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(cache_.Integrate(DiamondGraph(), HostLocation{55, 103, 7}).ok());
  }
  TopoCache cache_;
};

TEST_F(VerifierTest, AcceptsValidPath) {
  PathVerifier v(&cache_.db(), VerifyPolicy{});
  EXPECT_TRUE(v.VerifyUidPath({100, 101, 103}).ok());
}

TEST_F(VerifierTest, RejectsNonAdjacent) {
  PathVerifier v(&cache_.db(), VerifyPolicy{});
  EXPECT_EQ(v.VerifyUidPath({100, 103}).error().code(), ErrorCode::kUnavailable);
}

TEST_F(VerifierTest, RejectsLoops) {
  PathVerifier v(&cache_.db(), VerifyPolicy{});
  EXPECT_EQ(v.VerifyUidPath({100, 101, 100}).error().code(), ErrorCode::kInvalidArgument);
}

TEST_F(VerifierTest, RejectsOverlongPath) {
  VerifyPolicy policy;
  policy.max_path_length = 2;
  PathVerifier v(&cache_.db(), policy);
  EXPECT_EQ(v.VerifyUidPath({100, 101, 103}).error().code(), ErrorCode::kOutOfRange);
}

TEST_F(VerifierTest, RejectsDownLink) {
  cache_.db().SetLinkState(101, 2, false);
  PathVerifier v(&cache_.db(), VerifyPolicy{});
  EXPECT_EQ(v.VerifyUidPath({100, 101, 103}).error().code(), ErrorCode::kUnavailable);
}

TEST_F(VerifierTest, PolicyFiltersSwitches) {
  VerifyPolicy policy;
  policy.switch_allowed = [](uint64_t uid) { return uid != 101; };
  PathVerifier v(&cache_.db(), policy);
  EXPECT_EQ(v.VerifyUidPath({100, 101, 103}).error().code(), ErrorCode::kPermissionDenied);
  EXPECT_TRUE(v.VerifyUidPath({100, 102, 103}).ok());
}

// --- HostAgent basics (no controller) ------------------------------------------------

TEST(HostAgentTest, TransitProbeGetsReply) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  TestFabric fabric(std::move(tb.value().topo));
  HostAgent& prober = fabric.agent(25);

  std::vector<Packet> events;
  prober.SetProbeEventHandler([&](const Packet& pkt) { events.push_back(pkt); });

  // Host-probe the port of agent 0 (both agents share leaf 0): path is
  // [H0's port] with return tags [prober's port].
  PortNum h0_port = fabric.topo().HostUplink(0).value().port;
  PortNum my_port = fabric.topo().HostUplink(25).value().port;
  prober.SendTags({h0_port, my_port}, kBroadcastMac,
                  ProbePayload{1, prober.mac(), {h0_port, my_port, kPathEndTag}});
  fabric.Run();

  ASSERT_EQ(events.size(), 1u);
  const auto* reply = events[0].As<ProbeReplyPayload>();
  ASSERT_NE(reply, nullptr);
  EXPECT_EQ(reply->responder_mac, fabric.agent(0).mac());
  EXPECT_EQ(reply->reply_path, (TagList{my_port, kPathEndTag}));
  EXPECT_EQ(fabric.agent(0).stats().probes_replied, 1u);
}

TEST(HostAgentTest, UnbootstrappedSendQueues) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  TestFabric fabric(std::move(tb.value().topo));
  EXPECT_TRUE(fabric.agent(0).Send(fabric.agent(1).mac(), 1, DataPayload{}).ok());
  fabric.Run();
  EXPECT_EQ(fabric.agent(0).stats().data_blocked, 1u);
  EXPECT_EQ(fabric.agent(1).stats().data_received, 0u);
}

TEST(HostAgentTest, SendOnPathVerifies) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  auto spines = tb.value().spines;
  auto leaves = tb.value().leaves;
  TestFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(25);

  HostAgent& src = fabric.agent(0);    // on leaf0
  HostAgent& dst = fabric.agent(12);   // on leaf2
  int received = 0;
  dst.SetDataHandler([&](const Packet&, const DataPayload&) { ++received; });

  // Pull the topology into src's cache first (one normal send).
  ASSERT_TRUE(src.Send(dst.mac(), 1, DataPayload{}).ok());
  fabric.Run();
  ASSERT_EQ(received, 1);

  uint64_t leaf0 = fabric.topo().switch_at(leaves[0]).uid;
  uint64_t spine1 = fabric.topo().switch_at(spines[1]).uid;
  uint64_t leaf2 = fabric.topo().switch_at(leaves[2]).uid;
  // A valid explicit route via spine 1.
  EXPECT_TRUE(src.SendOnPath(dst.mac(), {leaf0, spine1, leaf2}, DataPayload{}).ok());
  // A bogus explicit route (no leaf0-leaf2 link) is rejected by the verifier.
  EXPECT_FALSE(src.SendOnPath(dst.mac(), {leaf0, leaf2}, DataPayload{}).ok());
  fabric.Run();
  EXPECT_EQ(received, 2);
  EXPECT_EQ(src.stats().verify_failures, 1u);
}

TEST(HostAgentTest, BootstrappedHostsShareOneDirectory) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  TestFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(25);

  const TopoDb::SharedDirectory& shared = fabric.agent(0).topo_cache().db().host_base();
  ASSERT_NE(shared, nullptr);
  EXPECT_EQ(shared->size(), fabric.host_count());
  size_t directory_share_sum = 0;
  // Per distinct structure: its bytes, and the shares and holders seen.
  struct StructureCharge {
    size_t bytes = 0;
    size_t share_sum = 0;
    size_t holders = 0;
  };
  std::map<const TopoDb::Structure*, StructureCharge> structures;
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    const TopoCache& cache = fabric.agent(h).topo_cache();
    EXPECT_EQ(cache.db().host_base(), shared) << "host " << h;
    EXPECT_EQ(cache.db().host_count(), fabric.host_count()) << "host " << h;
    for (uint32_t other = 0; other < fabric.host_count(); ++other) {
      auto loc = cache.Locate(fabric.agent(other).mac());
      ASSERT_TRUE(loc.ok()) << "host " << h << " cannot locate host " << other;
      EXPECT_EQ(loc.value(), fabric.agent(other).self_location());
    }
    EXPECT_EQ(cache.db().overlay_host_count(), 0u) << "host " << h;
    const size_t structure_bytes = cache.db().switch_count() * 24 + cache.db().link_count() * 20;
    const size_t structure_share =
        structure_bytes / static_cast<size_t>(cache.db().structure().use_count());
    directory_share_sum += cache.ApproxBytes() - structure_share;
    StructureCharge& charge = structures[cache.db().structure().get()];
    charge.bytes = structure_bytes;
    charge.share_sum += structure_share;
    ++charge.holders;
  }
  // Summed over every holder, the shared directory is charged once, not once
  // per host.
  EXPECT_EQ(directory_share_sum, shared->size() * 24);
  // Hosts that learned the same fabric hold one structure, and it too is
  // charged once, less what rounding each holder's share down drops (under
  // one byte per holder).
  EXPECT_LT(structures.size(), fabric.host_count());
  for (const auto& [structure, charge] : structures) {
    EXPECT_LE(charge.share_sum, charge.bytes);
    EXPECT_GT(charge.share_sum + charge.holders, charge.bytes);
  }
}

// Hosts behind one leaf learn the same switches in the same order, so their
// caches route over one shared snapshot rather than one each.
TEST(HostAgentTest, HostsWithEqualCachesShareOneSnapshot) {
  LeafSpineConfig config;
  config.num_spine = 2;
  config.num_leaf = 4;
  config.hosts_per_leaf = 6;
  auto ls = MakeLeafSpine(config);
  ASSERT_TRUE(ls.ok());
  TestFabric fabric(std::move(ls.value().topo));
  fabric.BringUpAdopted(0);
  std::set<const SwitchGraph*> snapshots;
  for (uint32_t h = 0; h < fabric.host_count(); ++h) {
    snapshots.insert(&fabric.agent(h).topo_cache().RoutingGraph());
  }
  EXPECT_LT(snapshots.size(), fabric.host_count() / 2);
}

}  // namespace
}  // namespace dumbnet
