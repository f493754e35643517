// Tests for the correctness-tooling layer (src/analysis): audit macros, the
// invariant catalog, the InvariantAuditor + simulator hook, and the static
// fabric checker behind tools/dumbnet-check. Each registered invariant is
// exercised against a deliberately corrupted fabric state — truncated tag
// stacks, dangling WireLinks, stale cache entries — and must flag it.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "src/analysis/audit.h"
#include "src/analysis/fabric_check.h"
#include "src/analysis/invariant_auditor.h"
#include "src/analysis/invariants.h"
#include "src/topo/generators.h"
#include "src/topo/serialize.h"
#include "tests/test_fabric.h"

namespace dumbnet {
namespace {

// A square S0-S1-S2-S3-S0 with hosts on S0 and S2: two switch-disjoint routes
// between the hosts, so every corruption below has a well-defined clean baseline.
Topology SquareTopo() {
  Topology t;
  for (int i = 0; i < 4; ++i) {
    t.AddSwitch(4);
  }
  t.AddHost();
  t.AddHost();
  EXPECT_TRUE(t.ConnectSwitches(0, 1, 1, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(1, 2, 2, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(2, 2, 3, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(3, 2, 0, 2).ok());
  EXPECT_TRUE(t.AttachHost(0, 0, 3).ok());
  EXPECT_TRUE(t.AttachHost(1, 2, 3).ok());
  return t;
}

uint64_t Uid(const Topology& t, uint32_t sw) { return t.switch_at(sw).uid; }

// The (sound) path graph a controller would export for H0 reaching H1.
PathGraphExport SquarePathGraph(const Topology& t) {
  PathGraphExport g;
  g.src_uid = Uid(t, 0);
  g.dst_uid = Uid(t, 2);
  g.primary = {Uid(t, 0), Uid(t, 1), Uid(t, 2)};
  g.backup = {Uid(t, 0), Uid(t, 3), Uid(t, 2)};
  g.links = {
      WireLink{Uid(t, 0), 1, Uid(t, 1), 1},
      WireLink{Uid(t, 1), 2, Uid(t, 2), 1},
      WireLink{Uid(t, 2), 2, Uid(t, 3), 1},
      WireLink{Uid(t, 3), 2, Uid(t, 0), 2},
  };
  return g;
}

bool HasFinding(const std::vector<CheckFinding>& findings, const std::string& check) {
  for (const CheckFinding& f : findings) {
    if (f.check == check) {
      return true;
    }
  }
  return false;
}

// --- Tag-stack invariants ----------------------------------------------------------

TEST(TagStackAuditTest, WellFormedStacksPass) {
  EXPECT_TRUE(AuditTagStack({1, 2, 5, kPathEndTag}, /*expect_terminator=*/true).ok());
  EXPECT_TRUE(AuditTagStack({1, 2, 5}, /*expect_terminator=*/false).ok());
  EXPECT_TRUE(AuditTagStack({kIdQueryTag, 3, kPathEndTag}, true).ok());
}

TEST(TagStackAuditTest, TruncatedStackFlagged) {
  // ø in the middle: the path was truncated in flight.
  auto s = AuditTagStack({1, kPathEndTag, 5, kPathEndTag}, true);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kMalformed);
  // Missing terminator entirely.
  EXPECT_FALSE(AuditTagStack({1, 2, 5}, true).ok());
  EXPECT_FALSE(AuditTagStack({}, true).ok());
}

TEST(TagStackAuditTest, BudgetAndRangeEnforced) {
  TagList deep(audit::kMaxTagStackDepth, 1);
  deep.push_back(kPathEndTag);
  auto s = AuditTagStack(deep, true);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kExhausted);
  // 255 is ø; 0 is the ID query. Nothing else above kMaxPorts exists, so the
  // range check can only trip via a corrupted PortNum — simulate one directly.
  EXPECT_TRUE(AuditTagStack({kMaxPorts}, false).ok());
}

// --- Path-graph invariants ---------------------------------------------------------

TEST(WirePathGraphAuditTest, SoundGraphPasses) {
  Topology t = SquareTopo();
  EXPECT_TRUE(AuditWirePathGraph(SquarePathGraph(t)).ok());
}

TEST(WirePathGraphAuditTest, DisconnectedDstFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  g.links = {WireLink{Uid(t, 0), 1, Uid(t, 1), 1}};  // nothing reaches S2
  auto s = AuditWirePathGraph(g);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kNotFound);
}

TEST(WirePathGraphAuditTest, DanglingLinkFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  // A link between two switches nothing else references: disconnected from src.
  g.links.push_back(WireLink{991188, 1, 991189, 1});
  auto s = AuditWirePathGraph(g);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.error().message().find("dangling"), std::string::npos);
}

TEST(WirePathGraphAuditTest, PortConflictFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  // Second link claims S0 port 1, already used by the first.
  g.links.push_back(WireLink{Uid(t, 0), 1, Uid(t, 2), 4});
  auto s = AuditWirePathGraph(g);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kAlreadyExists);
}

TEST(PathGraphAuditTest, BuiltGraphsSatisfyInvariants) {
  Topology t = SquareTopo();
  SwitchGraph graph(t);
  auto pg = BuildPathGraph(t, graph, 0, 2, PathGraphParams{});
  ASSERT_TRUE(pg.ok());
  EXPECT_TRUE(AuditPathGraph(t, pg.value()).ok());
}

TEST(PathGraphAuditTest, LoopAndDownLinkFlagged) {
  Topology t = SquareTopo();
  SwitchGraph graph(t);
  auto pg = BuildPathGraph(t, graph, 0, 2, PathGraphParams{});
  ASSERT_TRUE(pg.ok());
  PathGraph corrupted = pg.value();
  corrupted.primary = {0, 1, 0, 1, 2};  // routing loop
  EXPECT_FALSE(AuditPathGraph(t, corrupted).ok());

  // A link that has since failed must not stay in a (fresh) path graph.
  t.SetLinkUp(t.LinkAtPort(0, 1), false);
  EXPECT_FALSE(AuditPathGraph(t, pg.value()).ok());
}

// --- Cache coherence ---------------------------------------------------------------

TEST(CacheCoherenceTest, RouteOverUnknownSwitchFlagged) {
  Topology t = SquareTopo();
  TopoCache cache;
  PathTable table(1);
  cache.UpsertHost(HostLocation{99, Uid(t, 0), 3});
  PathTableEntry entry;
  entry.dst = HostLocation{99, Uid(t, 0), 3};
  CachedRoute route;
  route.uid_path = {Uid(t, 0), 424242};  // switch the cache never heard of
  route.tags = {1, 3};
  entry.paths.push_back(route);
  table.Install(99, entry);
  auto s = AuditCacheCoherence(cache, table);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kNotFound);
}

TEST(CacheCoherenceTest, StaleDestinationFlagged) {
  Topology t = SquareTopo();
  TopoCache cache;
  PathTable table(1);
  // Cache thinks the host moved to S1; the table still has the S0 location.
  cache.UpsertHost(HostLocation{99, Uid(t, 1), 2});
  PathTableEntry entry;
  entry.dst = HostLocation{99, Uid(t, 0), 3};
  table.Install(99, entry);
  auto s = AuditCacheCoherence(cache, table);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error().code(), ErrorCode::kMalformed);
}

// --- Controller database vs ground truth -------------------------------------------

TEST(TopoDbTruthAuditTest, StaleUpLinkFlaggedOnlyWhenStrict) {
  Topology truth = SquareTopo();
  TopoDb db;
  ASSERT_TRUE(db.AddLink(WireLink{Uid(truth, 0), 1, Uid(truth, 1), 1}).ok());
  EXPECT_TRUE(AuditTopoDbAgainstTruth(db, truth).ok());

  // The fabric link dies but the database never hears about it.
  truth.SetLinkUp(truth.LinkAtPort(0, 1), false);
  EXPECT_FALSE(AuditTopoDbAgainstTruth(db, truth, /*require_fresh_links=*/true).ok());
  // The structural variant tolerates in-flight staleness…
  EXPECT_TRUE(AuditTopoDbAgainstTruth(db, truth, /*require_fresh_links=*/false).ok());
  // …and once the notification lands, strict passes again.
  db.SetLinkState(Uid(truth, 0), 1, false);
  EXPECT_TRUE(AuditTopoDbAgainstTruth(db, truth, /*require_fresh_links=*/true).ok());
}

TEST(TopoDbTruthAuditTest, PhantomSwitchAndMiswiredLinkFlagged) {
  Topology truth = SquareTopo();
  {
    TopoDb db;
    db.EnsureSwitch(778899);  // never existed
    EXPECT_FALSE(AuditTopoDbAgainstTruth(db, truth).ok());
  }
  {
    TopoDb db;
    // Fabric wires S0 port 1 to S1 port 1; the database believes port 2.
    ASSERT_TRUE(db.AddLink(WireLink{Uid(truth, 0), 1, Uid(truth, 1), 2}).ok());
    EXPECT_FALSE(AuditTopoDbAgainstTruth(db, truth).ok());
  }
}

TEST(TopoDbTruthAuditTest, MislocatedHostFlagged) {
  Topology truth = SquareTopo();
  TopoDb db;
  const uint64_t mac = truth.host_at(0).mac == 0 ? 1 : truth.host_at(0).mac;
  db.UpsertHost(HostLocation{mac, Uid(truth, 1), 3});  // actually on S0 port 3
  EXPECT_FALSE(AuditTopoDbAgainstTruth(db, truth).ok());
}

// --- InvariantAuditor + simulator hook ---------------------------------------------

TEST(InvariantAuditorTest, RunsCatalogAndRecordsViolations) {
  InvariantAuditor auditor;
  auditor.Register("ok", [] { return Status::Ok(); });
  auditor.Register("bad", [] {
    return Status(Error(ErrorCode::kInternal, "seeded failure"));
  });
  auto found = auditor.RunAll();
  ASSERT_EQ(found.size(), 1u);
  EXPECT_EQ(found[0].invariant, "bad");
  EXPECT_FALSE(auditor.clean());
  EXPECT_TRUE(auditor.RunOne("ok").ok());
  EXPECT_FALSE(auditor.RunOne("bad").ok());
  EXPECT_EQ(auditor.RunOne("missing").error().code(), ErrorCode::kNotFound);
}

TEST(InvariantAuditorTest, AttachedAuditorRunsEveryNEvents) {
  Simulator sim;
  InvariantAuditor auditor;
  auditor.Register("ok", [] { return Status::Ok(); });
  auditor.AttachTo(&sim, 10);
  for (int i = 0; i < 100; ++i) {
    sim.ScheduleAt(i, [] {});
  }
  sim.Run();
  EXPECT_EQ(auditor.runs(), 10u);
  EXPECT_TRUE(auditor.clean());
}

TEST(AuditMacroTest, SwitchFlagsUnterminatedTagStack) {
  audit::ResetCounters();
  Topology t = SquareTopo();
  TestFabric fabric(std::move(t));
  Packet pkt;
  pkt.eth.ether_type = kEtherTypeDumbNet;
  pkt.tags = {1, 2};  // no ø: a truncated header
  fabric.dumb_switch(0).HandlePacket(pkt, 3);
  fabric.Run();
  EXPECT_GE(audit::Counters().failures, 1u);
  EXPECT_NE(audit::LastFailure().find("terminated"), std::string::npos);
  audit::ResetCounters();
}

// A site failing in bulk logs and dumps once, then only a running count.
TEST(AuditMacroTest, OneSiteTrippedOftenDumpsOnce) {
  audit::ResetCounters();
  testing::internal::CaptureStderr();
  for (int i = 0; i < 1000; ++i) {
    DUMBNET_AUDIT(i < 0, "tripped in bulk");
  }
  const std::string err = testing::internal::GetCapturedStderr();
  EXPECT_EQ(audit::Counters().failures, 1000u);
  EXPECT_NE(audit::LastFailure().find("tripped in bulk"), std::string::npos);
  auto count = [&err](const std::string& needle) {
    size_t n = 0;
    for (size_t at = err.find(needle); at != std::string::npos;
         at = err.find(needle, at + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("=== flight recorder:"), 1u);
  EXPECT_EQ(count("tripped in bulk"), 1u);
  EXPECT_EQ(count("failures at this site so far"), 3u);  // 10, 100, 1000
  EXPECT_EQ(count(" 1000 failures at this site so far"), 1u);
  audit::ResetCounters();
}

TEST(AuditMacroTest, CleanTrafficTripsNothing) {
  audit::ResetCounters();
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  TestFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(25);
  auto& auditor = fabric.EnableAuditing(16);
  ASSERT_TRUE(fabric.agent(0).Send(fabric.agent(6).mac(), 1, DataPayload{}).ok());
  ASSERT_TRUE(fabric.agent(3).Send(fabric.agent(12).mac(), 2, DataPayload{}).ok());
  fabric.Run();
  EXPECT_GT(auditor.runs(), 0u);
  EXPECT_TRUE(auditor.clean());
  EXPECT_EQ(audit::Counters().failures, 0u);
  // Quiescent fabric: the strict database check must hold too.
  EXPECT_TRUE(AuditTopoDbAgainstTruth(fabric.controller().db(), fabric.topo()).ok());
  audit::ResetCounters();
}

// --- Path-graph serialization ------------------------------------------------------

TEST(PathGraphSerializeTest, RoundTrips) {
  Topology t = SquareTopo();
  std::vector<PathGraphExport> graphs = {SquarePathGraph(t)};
  graphs[0].backup.clear();  // exercise the optional-backup form
  std::string text = SerializeWirePathGraphs(graphs);
  auto parsed = ParseWirePathGraphs(text);
  ASSERT_TRUE(parsed.ok());
  ASSERT_EQ(parsed.value().size(), 1u);
  EXPECT_EQ(parsed.value()[0].src_uid, graphs[0].src_uid);
  EXPECT_EQ(parsed.value()[0].primary, graphs[0].primary);
  EXPECT_TRUE(parsed.value()[0].backup.empty());
  EXPECT_EQ(parsed.value()[0].links, graphs[0].links);
}

TEST(PathGraphSerializeTest, ParseErrorsCarryLineNumbers) {
  EXPECT_FALSE(ParseWirePathGraphs("primary 1 2\n").ok());     // outside a block
  EXPECT_FALSE(ParseWirePathGraphs("pathgraph 1 2\n").ok());   // unterminated
  EXPECT_FALSE(ParseWirePathGraphs("pathgraph 1 2\nplink 1 999 2 1\nend\n").ok());
}

// --- Static fabric checker ---------------------------------------------------------

TEST(FabricCheckTest, CleanFabricHasNoFindings) {
  Topology t = SquareTopo();
  EXPECT_TRUE(CheckFabric(t, {SquarePathGraph(t)}, {}).empty());
}

TEST(FabricCheckTest, DownUplinkAndUnreachableHostFlagged) {
  Topology t = SquareTopo();
  t.SetLinkUp(t.host_at(1).link, false);
  EXPECT_TRUE(HasFinding(CheckTopology(t), "host-uplink-down"));

  Topology t2 = SquareTopo();
  // Cut both S0-side links: H0's switch is isolated from H1's.
  t2.SetLinkUp(t2.LinkAtPort(0, 1), false);
  t2.SetLinkUp(t2.LinkAtPort(0, 2), false);
  EXPECT_TRUE(HasFinding(CheckTopology(t2), "host-unreachable"));
}

TEST(FabricCheckTest, PathEndpointMismatchFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  g.primary.back() = Uid(t, 3);  // ends at the wrong switch
  EXPECT_TRUE(HasFinding(CheckPathGraphs(t, {g}, {}), "pathgraph-malformed"));
}

TEST(FabricCheckTest, PathHopWithoutLinkFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  g.links.erase(g.links.begin());  // primary hop u0->u1 now has no link
  EXPECT_TRUE(AuditWirePathGraph(g).ok());  // the links alone still connect src to dst
  EXPECT_TRUE(HasFinding(CheckPathGraphs(t, {g}, {}), "pathgraph-malformed"));
}

TEST(FabricCheckTest, PrimaryLoopFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  g.primary = {Uid(t, 0), Uid(t, 1), Uid(t, 0), Uid(t, 1), Uid(t, 2)};
  EXPECT_TRUE(HasFinding(CheckPathGraphs(t, {g}, {}), "primary-loop"));
}

TEST(FabricCheckTest, LinkConflictFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  g.links[0].port_b = 3;  // fabric wires S1's side on port 1, not 3
  EXPECT_TRUE(HasFinding(CheckPathGraphs(t, {g}, {}), "link-conflict"));
}

TEST(FabricCheckTest, BackupSharingFailedPrimaryLinkFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  g.backup = g.primary;  // degenerate backup riding the same hops
  t.SetLinkUp(t.LinkAtPort(0, 1), false);
  auto findings = CheckPathGraphs(t, {g}, {});
  EXPECT_TRUE(HasFinding(findings, "primary-on-failed-link"));
  EXPECT_TRUE(HasFinding(findings, "backup-shares-failed-link"));
}

TEST(FabricCheckTest, TagBudgetFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  FabricCheckOptions opts;
  opts.max_tag_depth = 3;  // primary needs 3 hops + ø = 4 header bytes
  EXPECT_TRUE(HasFinding(CheckPathGraphs(t, {g}, opts), "tag-budget-exceeded"));
}

// --- The CLI driver: every seeded corruption exits non-zero ------------------------

struct CliCase {
  const char* name;
  const char* expected_check;
  void (*corrupt)(Topology& topo, std::vector<PathGraphExport>& graphs);
};

TEST(DumbnetCheckCliTest, DetectsEverySeededCorruption) {
  const CliCase cases[] = {
      {"uplink_down", "host-uplink-down",
       [](Topology& topo, std::vector<PathGraphExport>&) {
         topo.SetLinkUp(topo.host_at(1).link, false);
       }},
      {"primary_loop", "primary-loop",
       [](Topology& topo, std::vector<PathGraphExport>& graphs) {
         graphs[0].primary = {Uid(topo, 0), Uid(topo, 1), Uid(topo, 0),
                              Uid(topo, 1), Uid(topo, 2)};
       }},
      {"dangling_link", "link-conflict",
       [](Topology&, std::vector<PathGraphExport>& graphs) {
         graphs[0].links.push_back(WireLink{991188, 1, 991189, 1});
       }},
      {"backup_shares_failed", "backup-shares-failed-link",
       [](Topology& topo, std::vector<PathGraphExport>& graphs) {
         graphs[0].backup = graphs[0].primary;
         topo.SetLinkUp(topo.LinkAtPort(0, 1), false);
       }},
  };
  for (const CliCase& c : cases) {
    SCOPED_TRACE(c.name);
    Topology topo = SquareTopo();
    std::vector<PathGraphExport> graphs = {SquarePathGraph(topo)};
    c.corrupt(topo, graphs);

    const std::string dir = ::testing::TempDir();
    const std::string topo_path = dir + "/" + c.name + ".topo";
    const std::string pg_path = dir + "/" + c.name + ".pg";
    ASSERT_TRUE(SaveTopology(topo, topo_path).ok());
    ASSERT_TRUE(SaveWirePathGraphs(graphs, pg_path).ok());

    std::ostringstream out;
    EXPECT_EQ(RunDumbnetCheck(topo_path, {pg_path}, {}, out), 1);
    EXPECT_NE(out.str().find(c.expected_check), std::string::npos) << out.str();
  }
}

TEST(DumbnetCheckCliTest, CleanFabricExitsZero) {
  Topology topo = SquareTopo();
  const std::string dir = ::testing::TempDir();
  const std::string topo_path = dir + "/clean.topo";
  const std::string pg_path = dir + "/clean.pg";
  ASSERT_TRUE(SaveTopology(topo, topo_path).ok());
  ASSERT_TRUE(SaveWirePathGraphs({SquarePathGraph(topo)}, pg_path).ok());
  std::ostringstream out;
  EXPECT_EQ(RunDumbnetCheck(topo_path, {pg_path}, {}, out), 0);
}

TEST(DumbnetCheckCliTest, MissingFilesExitTwo) {
  std::ostringstream out;
  EXPECT_EQ(RunDumbnetCheck("/nonexistent/fabric.topo", {}, {}, out), 2);
  Topology topo = SquareTopo();
  const std::string topo_path = ::testing::TempDir() + "/ok.topo";
  ASSERT_TRUE(SaveTopology(topo, topo_path).ok());
  EXPECT_EQ(RunDumbnetCheck(topo_path, {"/nonexistent/graphs.pg"}, {}, out), 2);
}

// ---------------------------------------------------------------------------
// Algorithm 1 semantics of the path-graph checker (Section 4.3).
// ---------------------------------------------------------------------------

TEST(VerifyPathGraphTest, SoundGraphPasses) {
  Topology t = SquareTopo();
  auto findings = CheckPathGraphs(t, {SquarePathGraph(t)});
  EXPECT_TRUE(findings.empty()) << findings.size() << " findings, first: "
                                << (findings.empty() ? "" : findings[0].detail);
}

TEST(VerifyPathGraphTest, UnknownSwitchFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  g.primary[1] = 991199;  // no such switch in the snapshot
  EXPECT_TRUE(HasFinding(CheckPathGraphs(t, {g}), "pathgraph-unknown-switch"));
}

TEST(VerifyPathGraphTest, BackupLoopFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  g.backup = {Uid(t, 0), Uid(t, 3), Uid(t, 0), Uid(t, 3), Uid(t, 2)};
  EXPECT_TRUE(HasFinding(CheckPathGraphs(t, {g}), "backup-loop"));
}

TEST(VerifyPathGraphTest, BrokenEdgeFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  g.primary = {Uid(t, 0), Uid(t, 2)};  // no direct S0<->S2 link exists
  EXPECT_TRUE(HasFinding(CheckPathGraphs(t, {g}), "path-broken-edge"));
}

TEST(VerifyPathGraphTest, MissingDetourVertexFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  // Strip S3 from the graph entirely: no backup, no links touching it. S3 is
  // 1+1 hops from the (only) window's endpoints, well under budget s+eps = 4,
  // so Algorithm 1 requires it as a member.
  g.backup.clear();
  g.links = {WireLink{Uid(t, 0), 1, Uid(t, 1), 1}, WireLink{Uid(t, 1), 2, Uid(t, 2), 1}};
  EXPECT_TRUE(HasFinding(CheckPathGraphs(t, {g}), "detour-incomplete"));
}

TEST(VerifyPathGraphTest, NonEpsGoodDetourFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  // Keep S3 a member (the S2<->S3 link stays) but drop the S3<->S0 link that
  // completes the detour: the fabric can route around the S0..S2 window via
  // S0-S3-S2, the cached subgraph no longer can.
  g.backup.clear();
  g.links = {WireLink{Uid(t, 0), 1, Uid(t, 1), 1}, WireLink{Uid(t, 1), 2, Uid(t, 2), 1},
             WireLink{Uid(t, 2), 2, Uid(t, 3), 1}};
  auto findings = CheckPathGraphs(t, {g});
  EXPECT_TRUE(HasFinding(findings, "detour-not-eps-good"));
  EXPECT_FALSE(HasFinding(findings, "detour-incomplete"));
}

TEST(VerifyPathGraphTest, StrandedVertexFlagged) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  // S3 stays a member via the backup path, but the graph advertises no links
  // touching it: a packet failed over onto the backup would strand there.
  g.links = {WireLink{Uid(t, 0), 1, Uid(t, 1), 1}, WireLink{Uid(t, 1), 2, Uid(t, 2), 1}};
  EXPECT_TRUE(HasFinding(CheckPathGraphs(t, {g}), "vertex-cannot-reach-dst"));
}

TEST(VerifyPathGraphTest, BackupOverlapScored) {
  Topology t = SquareTopo();
  PathGraphExport g = SquarePathGraph(t);
  g.backup = g.primary;  // total overlap
  // Default tolerance (1.0) accepts even total overlap...
  EXPECT_FALSE(HasFinding(CheckPathGraphs(t, {g}), "backup-overlap"));
  // ...a tightened one rejects it, and accepts the disjoint original.
  FabricCheckOptions strict;
  strict.max_backup_overlap = 0.5;
  EXPECT_TRUE(HasFinding(CheckPathGraphs(t, {g}, strict), "backup-overlap"));
  EXPECT_FALSE(HasFinding(CheckPathGraphs(t, {SquarePathGraph(t)}, strict),
                          "backup-overlap"));
}

TEST(VerifyPathGraphTest, ControllerGeneratedGraphsVerifyClean) {
  auto tb = MakePaperTestbed();
  ASSERT_TRUE(tb.ok());
  TestFabric fabric(std::move(tb.value().topo));
  fabric.BringUpAdopted(25);
  fabric.Run();
  std::vector<uint64_t> dst_macs;
  for (uint32_t h = 1; h < fabric.host_count(); ++h) {
    dst_macs.push_back(fabric.agent(h).mac());
  }
  auto graphs = fabric.controller().PrecomputePathGraphs(fabric.agent(0).mac(), dst_macs);
  ASSERT_TRUE(graphs.ok());
  ASSERT_FALSE(graphs.value().empty());
  auto findings = CheckPathGraphs(fabric.topo(), graphs.value());
  EXPECT_TRUE(findings.empty())
      << findings.size() << " findings, first: " << findings[0].detail;
  // And still clean after a failure + patch cycle: once the fabric broadcast
  // reaches the controller it recomputes against the patched topology, so
  // fresh graphs must re-verify against the new truth.
  fabric.topo().SetLinkUp(fabric.topo().LinkAtPort(tb.value().leaves[0], 1), false);
  fabric.Run();
  auto after = fabric.controller().PrecomputePathGraphs(fabric.agent(0).mac(), dst_macs);
  ASSERT_TRUE(after.ok());
  auto post = CheckPathGraphs(fabric.topo(), after.value());
  EXPECT_TRUE(post.empty()) << post.size() << " findings, first: " << post[0].detail;
}

TEST(DumbnetCheckCliTest, SemanticFindingAndJsonOutput) {
  Topology topo = SquareTopo();
  PathGraphExport bad = SquarePathGraph(topo);
  bad.backup = {Uid(topo, 0), Uid(topo, 3), Uid(topo, 0), Uid(topo, 3), Uid(topo, 2)};
  const std::string dir = ::testing::TempDir();
  const std::string topo_path = dir + "/verify.topo";
  const std::string pg_path = dir + "/verify.pg";
  const std::string json_path = dir + "/verify.json";
  ASSERT_TRUE(SaveTopology(topo, topo_path).ok());
  ASSERT_TRUE(SaveWirePathGraphs({bad}, pg_path).ok());

  FabricCheckOptions opts;
  opts.json_path = json_path;
  std::ostringstream out;
  EXPECT_EQ(RunDumbnetCheck(topo_path, {pg_path}, opts, out), 1);
  EXPECT_NE(out.str().find("backup-loop"), std::string::npos) << out.str();

  std::ifstream json_in(json_path);
  ASSERT_TRUE(json_in.good());
  std::ostringstream json;
  json << json_in.rdbuf();
  EXPECT_NE(json.str().find("\"check\":\"backup-loop\""), std::string::npos)
      << json.str();
  EXPECT_NE(json.str().find("\"count\":"), std::string::npos);
}

}  // namespace
}  // namespace dumbnet
