#include <gtest/gtest.h>

#include <set>
#include <tuple>
#include <utility>

#include "src/analysis/invariants.h"
#include "src/routing/graph.h"
#include "src/routing/path_graph.h"
#include "src/routing/shortest_path.h"
#include "src/routing/tags.h"
#include "src/routing/topo_db.h"
#include "src/topo/generators.h"

namespace dumbnet {
namespace {

// A small diamond: 0 - {1,2} - 3, plus a long way around 0-4-5-3.
Topology Diamond() {
  Topology t;
  for (int i = 0; i < 6; ++i) {
    t.AddSwitch(8);
  }
  EXPECT_TRUE(t.ConnectSwitches(0, 1, 1, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(0, 2, 2, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(1, 2, 3, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(2, 2, 3, 2).ok());
  EXPECT_TRUE(t.ConnectSwitches(0, 3, 4, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(4, 2, 5, 1).ok());
  EXPECT_TRUE(t.ConnectSwitches(5, 2, 3, 3).ok());
  return t;
}

TEST(BfsTest, Distances) {
  Topology t = Diamond();
  SwitchGraph g(t);
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[0], 0u);
  EXPECT_EQ(dist[1], 1u);
  EXPECT_EQ(dist[2], 1u);
  EXPECT_EQ(dist[3], 2u);
  EXPECT_EQ(dist[4], 1u);
  EXPECT_EQ(dist[5], 2u);
}

TEST(BfsTest, UnreachableIsMax) {
  Topology t;
  t.AddSwitch(4);
  t.AddSwitch(4);
  SwitchGraph g(t);
  auto dist = BfsDistances(g, 0);
  EXPECT_EQ(dist[1], UINT32_MAX);
}

TEST(ShortestPathTest, FindsMinHops) {
  Topology t = Diamond();
  SwitchGraph g(t);
  auto path = ShortestPath(g, 0, 3);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value().size(), 3u);
  EXPECT_EQ(path.value().front(), 0u);
  EXPECT_EQ(path.value().back(), 3u);
}

TEST(ShortestPathTest, DownLinksExcluded) {
  Topology t = Diamond();
  // Kill both short middle links; only the long way remains.
  t.SetLinkUp(t.LinkAtPort(1, 2), false);
  t.SetLinkUp(t.LinkAtPort(2, 2), false);
  SwitchGraph g(t);
  auto path = ShortestPath(g, 0, 3);
  ASSERT_TRUE(path.ok());
  EXPECT_EQ(path.value(), (SwitchPath{0, 4, 5, 3}));
}

TEST(ShortestPathTest, UnreachableErrors) {
  Topology t;
  t.AddSwitch(4);
  t.AddSwitch(4);
  SwitchGraph g(t);
  EXPECT_EQ(ShortestPath(g, 0, 1).error().code(), ErrorCode::kUnavailable);
}

TEST(ShortestPathTest, RandomTieBreakSpreadsOverEcmp) {
  Topology t = Diamond();
  SwitchGraph g(t);
  Rng rng(3);
  std::set<SwitchPath> seen;
  for (int i = 0; i < 64; ++i) {
    auto path = ShortestPath(g, 0, 3, &rng);
    ASSERT_TRUE(path.ok());
    seen.insert(path.value());
  }
  // Both 0-1-3 and 0-2-3 must appear.
  EXPECT_EQ(seen.size(), 2u);
}

TEST(KspTest, OrderedUniqueSimplePaths) {
  Topology t = Diamond();
  SwitchGraph g(t);
  auto paths = KShortestPaths(g, 0, 3, 5);
  ASSERT_TRUE(paths.ok());
  ASSERT_GE(paths.value().size(), 3u);
  std::set<SwitchPath> unique(paths.value().begin(), paths.value().end());
  EXPECT_EQ(unique.size(), paths.value().size());
  double prev = 0;
  for (const SwitchPath& p : paths.value()) {
    EXPECT_EQ(p.front(), 0u);
    EXPECT_EQ(p.back(), 3u);
    // Simple: no vertex repeats.
    std::set<uint32_t> verts(p.begin(), p.end());
    EXPECT_EQ(verts.size(), p.size());
    double cost = PathCost(g, p).value();
    EXPECT_GE(cost, prev);
    prev = cost;
  }
  // The two 2-hop paths come first, the 3-hop detour third.
  EXPECT_EQ(paths.value()[0].size(), 3u);
  EXPECT_EQ(paths.value()[1].size(), 3u);
  EXPECT_EQ(paths.value()[2].size(), 4u);
}

TEST(KspTest, FatTreeEcmpCount) {
  FatTreeConfig config;
  config.k = 4;
  config.attach_hosts = false;
  auto ft = MakeFatTree(config);
  ASSERT_TRUE(ft.ok());
  SwitchGraph g(ft.value().topo);
  // Between two edge switches in different pods there are exactly (k/2)^2 = 4
  // shortest 5-switch paths.
  auto paths = KShortestPaths(g, ft.value().edge[0], ft.value().edge[7], 8);
  ASSERT_TRUE(paths.ok());
  size_t minimal = 0;
  for (const SwitchPath& p : paths.value()) {
    if (p.size() == 5) {
      ++minimal;
    }
  }
  EXPECT_EQ(minimal, 4u);
}

// FNV-1a over every (src, dst) result of KShortestPaths over `switches`: the
// path count, then each path's length and vertices, so any change in which
// paths come out or in their order moves the digest.
uint64_t KspDigest(const SwitchGraph& g, const std::vector<uint32_t>& switches, uint32_t k) {
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  for (uint32_t src : switches) {
    for (uint32_t dst : switches) {
      if (src == dst) {
        continue;
      }
      auto paths = KShortestPaths(g, src, dst, k);
      mix(paths.ok() ? paths.value().size() : 0xdeadu);
      if (!paths.ok()) {
        continue;
      }
      for (const SwitchPath& p : paths.value()) {
        mix(p.size());
        for (uint32_t v : p) {
          mix(v);
        }
      }
    }
  }
  return h;
}

// Pins Yen's exact output (path set and order, equal-cost ties included) on a
// fat-tree k=8 and a seeded jellyfish. The digests were taken from the
// priority_queue/std::set implementation this one replaced.
TEST(KspTest, OutputIsPinnedOnFatTreeAndJellyfish) {
  FatTreeConfig ft_config;
  ft_config.k = 8;
  ft_config.attach_hosts = false;
  auto ft = MakeFatTree(ft_config);
  ASSERT_TRUE(ft.ok());
  SwitchGraph ft_graph(ft.value().topo);
  EXPECT_EQ(KspDigest(ft_graph, ft.value().edge, 4), 794141275487849539ull);
  EXPECT_EQ(KspDigest(ft_graph, ft.value().edge, 8), 13812385261300475619ull);

  JellyfishConfig jf_config;
  jf_config.num_switches = 32;
  jf_config.network_degree = 6;
  jf_config.hosts_per_switch = 0;
  jf_config.seed = 7;
  auto jf = MakeJellyfish(jf_config);
  ASSERT_TRUE(jf.ok());
  SwitchGraph jf_graph(jf.value().topo);
  std::vector<uint32_t> all(jf_graph.size());
  for (uint32_t v = 0; v < all.size(); ++v) {
    all[v] = v;
  }
  EXPECT_EQ(KspDigest(jf_graph, all, 4), 13199786495151249076ull);
  EXPECT_EQ(KspDigest(jf_graph, all, 8), 4253619765812899269ull);
}

// One scratch reused across graphs of different sizes must give what a fresh
// scratch gives on every call: a ban, cost or heap entry left behind by an
// earlier call would change the paths.
TEST(KspTest, ReusedScratchMatchesFreshScratchAcrossGraphs) {
  FatTreeConfig big_config;
  big_config.k = 8;
  big_config.attach_hosts = false;
  auto big = MakeFatTree(big_config);
  ASSERT_TRUE(big.ok());
  FatTreeConfig small_config;
  small_config.k = 4;
  small_config.attach_hosts = false;
  auto small = MakeFatTree(small_config);
  ASSERT_TRUE(small.ok());
  SwitchGraph big_graph(big.value().topo);
  SwitchGraph small_graph(small.value().topo);
  Topology diamond = Diamond();
  SwitchGraph diamond_graph(diamond);
  Topology split;  // two switches, no link: an unreachable query
  split.AddSwitch(4);
  split.AddSwitch(4);
  SwitchGraph split_graph(split);

  struct Query {
    const SwitchGraph* graph;
    uint32_t src;
    uint32_t dst;
    uint32_t k;
  };
  std::vector<Query> queries;
  const std::vector<uint32_t>& big_edge = big.value().edge;
  const std::vector<uint32_t>& small_edge = small.value().edge;
  for (uint32_t i = 0; i < 24; ++i) {
    const uint32_t b = static_cast<uint32_t>(big_edge.size());
    const uint32_t s = static_cast<uint32_t>(small_edge.size());
    queries.push_back({&big_graph, big_edge[i % b], big_edge[(7 * i + 5) % b], 8});
    queries.push_back({&small_graph, small_edge[i % s], small_edge[(3 * i + 1) % s], 4});
    queries.push_back({&diamond_graph, i % 6, (i + 3) % 6, 5});
    queries.push_back({&split_graph, 0, 1, 4});
  }
  KspScratch scratch;
  for (const Query& q : queries) {
    auto reused = KShortestPaths(*q.graph, q.src, q.dst, q.k, scratch);
    auto fresh = KShortestPaths(*q.graph, q.src, q.dst, q.k);
    ASSERT_EQ(reused.ok(), fresh.ok()) << q.src << "->" << q.dst;
    if (fresh.ok()) {
      EXPECT_EQ(reused.value(), fresh.value()) << q.src << "->" << q.dst;
    } else {
      EXPECT_EQ(reused.error().code(), fresh.error().code());
    }
  }
}

TEST(TagsTest, CompileAndFormat) {
  Topology t = Diamond();
  uint32_t h0 = t.AddHost();
  uint32_t h1 = t.AddHost();
  ASSERT_TRUE(t.AttachHost(h0, 0, 5).ok());
  ASSERT_TRUE(t.AttachHost(h1, 3, 5).ok());
  auto tags = CompilePathTags(t, h0, {0, 1, 3}, h1);
  ASSERT_TRUE(tags.ok());
  // 0 exits to 1 via port 1; 1 exits to 3 via port 2; 3 reaches h1 via port 5.
  EXPECT_EQ(tags.value(), (TagList{1, 2, 5}));
  EXPECT_EQ(TagsToString(tags.value()), "1-2-5-\xC3\xB8");
}

TEST(TagsTest, RejectsMismatchedEndpoints) {
  Topology t = Diamond();
  uint32_t h0 = t.AddHost();
  uint32_t h1 = t.AddHost();
  ASSERT_TRUE(t.AttachHost(h0, 0, 5).ok());
  ASSERT_TRUE(t.AttachHost(h1, 3, 5).ok());
  EXPECT_FALSE(CompilePathTags(t, h0, {1, 3}, h1).ok());    // wrong start
  EXPECT_FALSE(CompilePathTags(t, h0, {0, 1}, h1).ok());    // wrong end
  EXPECT_FALSE(CompilePathTags(t, h0, {0, 3}, h1).ok());    // no direct link
}

TEST(TagsTest, SkipsDownLinks) {
  Topology t = Diamond();
  t.SetLinkUp(t.LinkAtPort(0, 1), false);
  auto tags = CompileSwitchTags(t, {0, 1});
  EXPECT_FALSE(tags.ok());
}

// --- Path graph (Algorithm 1) ------------------------------------------------------

class PathGraphEpsilonTest : public ::testing::TestWithParam<uint32_t> {};

TEST_P(PathGraphEpsilonTest, InvariantsOnCube) {
  CubeConfig config;
  config.dims = {5, 5, 5};
  config.switch_ports = 16;
  auto cube = MakeCube(config);
  ASSERT_TRUE(cube.ok());
  const Topology& t = cube.value().topo;
  SwitchGraph g(t);

  PathGraphParams params;
  params.s = 2;
  params.epsilon = GetParam();
  uint32_t src = cube.value().At(0, 0, 0);
  uint32_t dst = cube.value().At(4, 4, 4);
  auto pg = BuildPathGraph(t, g, src, dst, params);
  ASSERT_TRUE(pg.ok());

  // Every constructed path graph must satisfy the structural invariant catalog.
  auto audit = AuditPathGraph(t, pg.value());
  EXPECT_TRUE(audit.ok()) << audit.error().message();

  // Primary is a shortest path (Manhattan distance = 12 hops -> 13 vertices).
  EXPECT_EQ(pg.value().primary.size(), 13u);
  // The subgraph contains primary and backup.
  std::set<uint32_t> verts(pg.value().vertices.begin(), pg.value().vertices.end());
  for (uint32_t v : pg.value().primary) {
    EXPECT_TRUE(verts.count(v)) << "primary vertex missing";
  }
  for (uint32_t v : pg.value().backup) {
    EXPECT_TRUE(verts.count(v)) << "backup vertex missing";
  }
  // The induced subgraph is connected and src->dst routable within it.
  SwitchGraph sub(t, pg.value().links);
  auto inner = ShortestPath(sub, src, dst);
  ASSERT_TRUE(inner.ok());
  EXPECT_EQ(inner.value().size(), 13u);
  // Subgraph is much smaller than the full topology for small epsilon.
  if (GetParam() == 0) {
    EXPECT_LT(pg.value().vertices.size(), t.switch_count() / 2);
  }
}

INSTANTIATE_TEST_SUITE_P(Epsilons, PathGraphEpsilonTest, ::testing::Values(0u, 1u, 2u, 4u));

TEST(PathGraphTest, SizeGrowsWithEpsilon) {
  CubeConfig config;
  config.dims = {6, 6, 6};
  config.switch_ports = 16;
  auto cube = MakeCube(config);
  ASSERT_TRUE(cube.ok());
  const Topology& t = cube.value().topo;
  SwitchGraph g(t);
  uint32_t src = cube.value().At(0, 0, 0);
  uint32_t dst = cube.value().At(5, 5, 5);
  size_t prev = 0;
  for (uint32_t eps : {0u, 1u, 2u, 3u}) {
    PathGraphParams params;
    params.s = 2;
    params.epsilon = eps;
    auto pg = BuildPathGraph(t, g, src, dst, params);
    ASSERT_TRUE(pg.ok());
    EXPECT_TRUE(AuditPathGraph(t, pg.value()).ok());
    EXPECT_GE(pg.value().vertices.size(), prev);
    prev = pg.value().vertices.size();
  }
}

TEST(PathGraphTest, BackupAvoidsPrimaryWherePossible) {
  Topology t = Diamond();
  SwitchGraph g(t);
  PathGraphParams params;
  auto pg = BuildPathGraph(t, g, 0, 3, params);
  ASSERT_TRUE(pg.ok());
  ASSERT_FALSE(pg.value().backup.empty());
  // Diamond has two disjoint 2-hop routes; backup must not reuse the primary's
  // middle vertex.
  ASSERT_EQ(pg.value().primary.size(), 3u);
  ASSERT_GE(pg.value().backup.size(), 3u);
  EXPECT_NE(pg.value().primary[1], pg.value().backup[1]);
}

TEST(PathGraphTest, CountPathsRespectsCap) {
  Topology t = Diamond();
  SwitchGraph g(t);
  PathGraphParams params;
  params.epsilon = 4;
  auto pg = BuildPathGraph(t, g, 0, 3, params);
  ASSERT_TRUE(pg.ok());
  uint64_t all = CountPathsInSubgraph(t, pg.value(), 1000);
  EXPECT_GE(all, 3u);
  EXPECT_EQ(CountPathsInSubgraph(t, pg.value(), 2), 2u);
}

TEST(PathGraphTest, SingleVertexPath) {
  Topology t = Diamond();
  SwitchGraph g(t);
  auto pg = BuildPathGraph(t, g, 2, 2, PathGraphParams{});
  ASSERT_TRUE(pg.ok());
  EXPECT_EQ(pg.value().primary, (SwitchPath{2}));
}

// ---------------------------------------------------------------------------
// CSR graph / scratch-SSSP / batch equivalence (the perf rework must not change
// any routing result).
// ---------------------------------------------------------------------------

Topology MediumCube() {
  CubeConfig config;
  config.dims = {4, 4, 4};
  config.hosts_per_switch = 0;
  config.switch_ports = 8;
  auto cube = MakeCube(config);
  EXPECT_TRUE(cube.ok());
  return std::move(cube.value().topo);
}

TEST(GraphTest, CsrNeighborsMatchTopologyLinks) {
  Topology t = MediumCube();
  // Knock one link down: it must disappear from the adjacency.
  t.SetLinkUp(0, false);
  SwitchGraph g(t);
  // Collect expected (switch, peer, link) triples straight from the link table.
  std::set<std::tuple<uint32_t, uint32_t, LinkIndex>> expected;
  for (LinkIndex li = 0; li < t.link_count(); ++li) {
    const Link& l = t.link_at(li);
    if (!l.up || !l.a.node.is_switch() || !l.b.node.is_switch()) {
      continue;
    }
    expected.insert({l.a.node.index, l.b.node.index, li});
    expected.insert({l.b.node.index, l.a.node.index, li});
  }
  std::set<std::tuple<uint32_t, uint32_t, LinkIndex>> actual;
  size_t edges = 0;
  for (uint32_t v = 0; v < g.size(); ++v) {
    for (const AdjEdge& e : g.Neighbors(v)) {
      actual.insert({v, e.to, e.link});
      ++edges;
    }
  }
  EXPECT_EQ(actual, expected);
  EXPECT_EQ(edges, g.edge_count());
}

TEST(BfsTest, ScratchVariantMatchesAllocatingVariant) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  std::vector<uint32_t> dist = BfsDistances(g, 0);
  SsspScratch scratch;
  BfsDistancesInto(g, 0, scratch);
  for (uint32_t v = 0; v < g.size(); ++v) {
    EXPECT_EQ(scratch.HopsOr(v, UINT32_MAX), dist[v]) << "vertex " << v;
  }
}

TEST(BfsTest, TruncationIsExactInsideHorizon) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  std::vector<uint32_t> dist = BfsDistances(g, 0);
  const uint32_t kHorizon = 3;
  SsspScratch scratch;
  BfsDistancesInto(g, 0, scratch, kHorizon);
  for (uint32_t v = 0; v < g.size(); ++v) {
    if (dist[v] <= kHorizon) {
      EXPECT_EQ(scratch.HopsOr(v, UINT32_MAX), dist[v]) << "vertex " << v;
    } else {
      EXPECT_FALSE(scratch.Seen(v)) << "vertex " << v;
    }
  }
}

TEST(ShortestPathTest, ScaledVariantMatchesPlainWithSameSeed) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  for (uint32_t dst : {7u, 21u, 63u}) {
    Rng rng_a(99);
    Rng rng_b(99);
    auto plain = ShortestPath(g, 0, dst, &rng_a);
    SsspScratch scratch;
    auto scaled = ShortestPathScaled(g, 0, dst, &rng_b, scratch, nullptr);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(scaled.ok());
    EXPECT_EQ(plain.value(), scaled.value()) << "dst " << dst;
  }
}

TEST(SsspTreeTest, TreePathsAreShortest) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  Rng rng(5);
  SsspTree tree = BuildSsspTree(g, 0, &rng);
  std::vector<uint32_t> dist = BfsDistances(g, 0);
  for (uint32_t dst = 0; dst < g.size(); ++dst) {
    auto path = PathFromTree(tree, dst);
    ASSERT_TRUE(path.ok()) << "dst " << dst;
    // Unit weights: tree distance == BFS hop count, path length == distance + 1.
    EXPECT_EQ(path.value().size(), static_cast<size_t>(dist[dst]) + 1);
    EXPECT_EQ(tree.cost[dst], static_cast<double>(dist[dst]));
    EXPECT_EQ(path.value().front(), 0u);
    EXPECT_EQ(path.value().back(), dst);
    // Every step must be an actual edge.
    EXPECT_TRUE(PathCost(g, path.value()).ok());
  }
}

TEST(SsspTreeTest, PathFromTreeRejectsUnreachable) {
  Topology t = Diamond();
  t.AddSwitch(8);  // isolated
  SwitchGraph g(t);
  SsspTree tree = BuildSsspTree(g, 0);
  EXPECT_FALSE(PathFromTree(tree, 6).ok());
  EXPECT_FALSE(PathFromTree(tree, 99).ok());
}

TEST(PathGraphTest, ScratchOverloadMatchesAllocatingOverload) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  PathGraphParams params;
  PathGraphScratch scratch;
  for (uint32_t dst : {21u, 42u, 63u}) {
    Rng rng_a(17);
    Rng rng_b(17);
    auto plain = BuildPathGraph(t, g, 0, dst, params, &rng_a);
    auto reused = BuildPathGraph(t, g, 0, dst, params, &rng_b, scratch);
    ASSERT_TRUE(plain.ok());
    ASSERT_TRUE(reused.ok());
    EXPECT_EQ(plain.value().primary, reused.value().primary);
    EXPECT_EQ(plain.value().backup, reused.value().backup);
    EXPECT_EQ(plain.value().vertices, reused.value().vertices);
    EXPECT_EQ(plain.value().links, reused.value().links);
  }
}

TEST(PathGraphBatchTest, MatchesSequentialBuildsWithForkedRngs) {
  Topology t = MediumCube();
  SwitchGraph g(t);
  PathGraphParams params;
  std::vector<uint32_t> dsts;
  for (uint32_t v = 1; v < g.size(); v += 3) {
    dsts.push_back(v);
  }
  Rng rng_tree_a(123);
  SsspTree tree = BuildSsspTree(g, 0, &rng_tree_a);
  // Reference: one sequential BuildPathGraphAround per destination, with the same
  // fork discipline the batch documents.
  Rng rng_a(55);
  std::vector<Rng> forks;
  for (size_t i = 0; i < dsts.size(); ++i) {
    forks.push_back(rng_a.Fork(i));
  }
  PathGraphScratch scratch;
  std::vector<Result<PathGraph>> expected;
  for (size_t i = 0; i < dsts.size(); ++i) {
    auto primary = PathFromTree(tree, dsts[i]);
    ASSERT_TRUE(primary.ok());
    expected.push_back(BuildPathGraphAround(t, g, std::move(primary.value()), params,
                                            &forks[i], scratch));
  }
  Rng rng_b(55);
  auto batch = BuildPathGraphBatch(t, g, tree, dsts, params, &rng_b);
  ASSERT_EQ(batch.size(), expected.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    ASSERT_TRUE(batch[i].ok());
    ASSERT_TRUE(expected[i].ok());
    EXPECT_EQ(batch[i].value().primary, expected[i].value().primary) << "dst " << dsts[i];
    EXPECT_EQ(batch[i].value().backup, expected[i].value().backup) << "dst " << dsts[i];
    EXPECT_EQ(batch[i].value().vertices, expected[i].value().vertices);
    EXPECT_EQ(batch[i].value().links, expected[i].value().links);
  }
}

TEST(PathGraphBatchTest, UnreachableDestinationYieldsErrorEntry) {
  Topology t = Diamond();
  t.AddSwitch(8);  // isolated switch 6
  SwitchGraph g(t);
  SsspTree tree = BuildSsspTree(g, 0);
  auto batch = BuildPathGraphBatch(t, g, tree, {3, 6, 1}, PathGraphParams{}, nullptr);
  ASSERT_EQ(batch.size(), 3u);
  EXPECT_TRUE(batch[0].ok());
  EXPECT_FALSE(batch[1].ok());
  EXPECT_TRUE(batch[2].ok());
}

// --- TopoDb structure: all-or-nothing merges, copy on write -------------------------

TEST(TopoDbStructureTest, MergeWithAnInvalidLinkChangesNothing) {
  TopoDb db;
  ASSERT_TRUE(db.AddLink(WireLink{100, 1, 101, 1}).ok());
  const size_t links = db.link_count();
  const size_t switches = db.switch_count();
  const uint64_t version = db.version();
  WirePathGraph graph;
  graph.src_uid = 101;
  graph.dst_uid = 103;
  // A valid link first, then one on port 255 (beyond kMaxPorts).
  graph.links = {WireLink{101, 2, 102, 1}, WireLink{102, 2, 103, 255}};
  EXPECT_FALSE(db.MergePathGraph(graph).ok());
  EXPECT_EQ(db.link_count(), links);
  EXPECT_EQ(db.switch_count(), switches);
  EXPECT_EQ(db.version(), version);
  EXPECT_FALSE(db.KnowsSwitch(102));

  // Port 0 and a link from a switch to itself are refused the same way.
  graph.links.back() = WireLink{102, 2, 103, 0};
  EXPECT_FALSE(db.MergePathGraph(graph).ok());
  graph.links.back() = WireLink{102, 2, 102, 3};
  EXPECT_FALSE(db.MergePathGraph(graph).ok());
  EXPECT_EQ(db.link_count(), links);
  EXPECT_EQ(db.version(), version);

  graph.links.back() = WireLink{102, 2, 103, 1};
  ASSERT_TRUE(db.MergePathGraph(graph).ok());
  EXPECT_EQ(db.link_count(), links + 2);
  EXPECT_EQ(db.switch_count(), switches + 2);
}

TEST(TopoDbStructureTest, AddLinkWithAnInvalidLinkChangesNothing) {
  TopoDb db;
  ASSERT_TRUE(db.AddLink(WireLink{100, 1, 101, 1}).ok());
  const uint64_t version = db.version();
  // Each would rewire 100:1, which holds a link, and register switch 102.
  for (const WireLink& bad : {WireLink{100, 1, 102, 255}, WireLink{100, 1, 102, 0},
                              WireLink{100, 1, 100, 2}}) {
    EXPECT_FALSE(db.AddLink(bad).ok());
    EXPECT_EQ(db.link_count(), 1u);
    EXPECT_EQ(db.switch_count(), 2u);
    EXPECT_EQ(db.version(), version);
    EXPECT_TRUE(db.HasLink(WireLink{100, 1, 101, 1}));
  }
}

TEST(TopoDbStructureTest, CopiesShareOneStructureUntilOneChanges) {
  TopoDb a;
  ASSERT_TRUE(a.AddLink(WireLink{100, 1, 101, 1}).ok());
  ASSERT_TRUE(a.AddLink(WireLink{101, 2, 102, 1}).ok());
  const TopoDb::Structure* own = a.structure().get();
  a.SetLinkState(100, 1, false);
  EXPECT_EQ(a.structure().get(), own);  // a sole owner edits in place

  TopoDb b = a;
  EXPECT_EQ(b.structure(), a.structure());
  // Calls that change nothing keep the pointer and the version.
  const uint64_t version = b.version();
  ASSERT_TRUE(b.AddLink(WireLink{101, 2, 102, 1}).ok());                    // known, up
  ASSERT_TRUE(b.AddLink(WireLink{101, 1, 100, 1}, /*revive=*/false).ok());  // known, down
  b.SetLinkState(100, 1, false);
  EXPECT_EQ(b.EnsureSwitch(102), 2u);
  WirePathGraph known;
  known.src_uid = 100;
  known.dst_uid = 102;
  known.links = {WireLink{100, 1, 101, 1}, WireLink{102, 1, 101, 2}};
  ASSERT_TRUE(b.MergePathGraph(known).ok());
  EXPECT_EQ(b.structure(), a.structure());
  EXPECT_EQ(b.version(), version);

  // A change copies the changed db only; the other keeps what it had.
  b.SetLinkState(100, 1, true);
  EXPECT_NE(b.structure(), a.structure());
  EXPECT_EQ(a.structure().get(), own);
  EXPECT_FALSE(a.mirror().link_at(0).up);
  EXPECT_TRUE(b.mirror().link_at(0).up);
  EXPECT_EQ(b.version(), version + 1);
  EXPECT_EQ(a.version(), version);
  EXPECT_FALSE(*a.structure() == *b.structure());
  a.SetLinkState(100, 1, true);
  EXPECT_TRUE(*a.structure() == *b.structure());
  EXPECT_EQ(a.structure()->ContentHash(), b.structure()->ContentHash());
}

// --- TopoDb host store: shared base + overlay ---------------------------------------

TopoDb::SharedDirectory SortedDirectory() {
  return std::make_shared<const HostDirectory>(
      std::vector<HostLocation>{{10, 100, 1}, {20, 100, 2}, {30, 101, 1}});
}

TEST(TopoDbHostsTest, SortedDirectoryIsSharedNotCopied) {
  TopoDb::SharedDirectory dir = SortedDirectory();
  TopoDb a;
  TopoDb b;
  a.UpsertHosts(dir);
  b.UpsertHosts(dir);
  EXPECT_EQ(a.host_base(), dir);
  EXPECT_EQ(b.host_base(), dir);
  EXPECT_EQ(a.overlay_host_count(), 0u);
  EXPECT_EQ(a.host_count(), 3u);
  for (const HostLocation& loc : *dir) {
    auto found = a.LocateHost(loc.mac);
    ASSERT_TRUE(found.ok()) << loc.mac;
    EXPECT_EQ(found.value(), loc);
  }
  EXPECT_FALSE(a.LocateHost(40).ok());
}

TEST(TopoDbHostsTest, OverlayMoveWinsOverBase) {
  TopoDb db;
  db.UpsertHosts(SortedDirectory());
  const HostLocation moved{20, 101, 5};
  db.UpsertHost(moved);
  db.UpsertHost(HostLocation{25, 102, 1});  // a host the base never had
  EXPECT_EQ(db.LocateHost(20).value(), moved);
  EXPECT_EQ(db.host_count(), 4u);
  EXPECT_EQ(db.Directory(), (std::vector<HostLocation>{
                                {10, 100, 1}, moved, {25, 102, 1}, {30, 101, 1}}));

  // Moving back to the base's location leaves nothing in the overlay for it.
  db.UpsertHost(HostLocation{20, 100, 2});
  EXPECT_EQ(db.overlay_host_count(), 1u);
  EXPECT_EQ(db.LocateHost(20).value(), (HostLocation{20, 100, 2}));
  EXPECT_EQ(db.host_count(), 4u);
}

TEST(TopoDbHostsTest, BulkUpsertMatchesOneByOne) {
  // Unsorted, with a duplicate MAC whose later entry must win.
  const std::vector<HostLocation> unsorted{
      {30, 101, 1}, {10, 100, 1}, {20, 100, 2}, {10, 102, 9}};
  TopoDb bulk;
  bulk.UpsertHost(HostLocation{10, 103, 3});  // overwritten by the directory
  bulk.UpsertHost(HostLocation{50, 103, 4});  // kept
  bulk.UpsertHosts(std::make_shared<const HostDirectory>(unsorted));
  TopoDb one_by_one;
  one_by_one.UpsertHost(HostLocation{10, 103, 3});
  one_by_one.UpsertHost(HostLocation{50, 103, 4});
  for (const HostLocation& loc : unsorted) {
    one_by_one.UpsertHost(loc);
  }
  EXPECT_EQ(bulk.host_base()->size(), 3u);  // sorted, one entry per MAC
  EXPECT_EQ(bulk.Directory(), one_by_one.Directory());
  EXPECT_EQ(bulk.host_count(), 4u);
  EXPECT_EQ(bulk.LocateHost(10).value(), (HostLocation{10, 102, 9}));

  // A second directory replaces the base; hosts only the old one knew stay.
  bulk.UpsertHosts(std::make_shared<const HostDirectory>(
      std::vector<HostLocation>{{20, 104, 1}, {40, 104, 2}}));
  one_by_one.UpsertHost(HostLocation{20, 104, 1});
  one_by_one.UpsertHost(HostLocation{40, 104, 2});
  EXPECT_EQ(bulk.Directory(), one_by_one.Directory());
  EXPECT_EQ(bulk.host_count(), 5u);
}

TEST(HostDirectoryTest, IndexesHostsBySwitchInMacOrder) {
  const HostDirectory dir(std::vector<HostLocation>{
      {40, 101, 3}, {10, 100, 1}, {30, 100, 2}, {20, 101, 1}, {50, 102, 1}});
  ASSERT_EQ(dir.size(), 5u);
  for (size_t i = 1; i < dir.size(); ++i) {
    EXPECT_LT(dir[i - 1].mac, dir[i].mac);
  }
  auto macs_on = [&dir](uint64_t uid) {
    std::vector<uint64_t> macs;
    for (uint32_t pos : dir.On(uid)) {
      macs.push_back(dir[pos].mac);
    }
    return macs;
  };
  EXPECT_EQ(macs_on(100), (std::vector<uint64_t>{10, 30}));
  EXPECT_EQ(macs_on(101), (std::vector<uint64_t>{20, 40}));
  EXPECT_EQ(macs_on(102), (std::vector<uint64_t>{50}));
  EXPECT_TRUE(macs_on(99).empty());
  EXPECT_TRUE(macs_on(103).empty());
  ASSERT_NE(dir.Find(30), nullptr);
  EXPECT_EQ(*dir.Find(30), (HostLocation{30, 100, 2}));
  EXPECT_EQ(dir.Find(35), nullptr);
  EXPECT_EQ(dir.LowerBound(35), 3u);
}

}  // namespace
}  // namespace dumbnet
