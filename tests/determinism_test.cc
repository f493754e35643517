// Golden-trace determinism: two runs of the same seeded workload must execute
// the exact same events at the exact same virtual times, in the same order, and
// converge on the same topology database. This is what makes every simulated
// result in this repo reproducible — any divergence (unordered-container
// iteration, uninitialised reads, time-dependent randomness) shows up here as a
// trace mismatch long before it corrupts a figure.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/chaos/chaos.h"
#include "src/core/fabric.h"
#include "src/routing/graph.h"
#include "src/routing/path_graph.h"
#include "src/sim/footprint.h"
#include "src/topo/generators.h"
#include "src/topo/serialize.h"
#include "src/util/rng.h"

namespace dumbnet {
namespace {

using Trace = std::vector<std::pair<TimeNs, uint64_t>>;

struct RunResult {
  Trace trace;
  std::string db_topology;  // serialized controller mirror after the run
  TimeNs final_time = 0;
};

// One full life-cycle: probing discovery + bootstrap, then a link failure, a
// burst of host traffic (exercising query/notify/retry paths), and the link's
// restoration. Everything runs off `seed`.
RunResult RunLifecycle(uint64_t seed, bool with_failure) {
  auto testbed = MakePaperTestbed();
  EXPECT_TRUE(testbed.ok());
  uint32_t spine0 = testbed.value().spines[0];
  SimulatedFabric fabric(std::move(testbed.value().topo));

  RunResult result;
  fabric.sim().SetTraceHook(
      [&](TimeNs at, uint64_t seq) { result.trace.emplace_back(at, seq); });

  ControllerConfig config;
  config.rng_seed = seed;
  DiscoveryConfig discovery;
  discovery.max_ports = 16;
  EXPECT_TRUE(fabric.BringUp(25, config, discovery));

  if (with_failure) {
    // Fail a spine uplink, push traffic through the recovery machinery, restore.
    LinkIndex li = fabric.topo().LinkAtPort(spine0, 1);
    EXPECT_NE(li, kInvalidLink);
    fabric.topo().SetLinkUp(li, false);
    for (uint32_t h = 0; h < 8; ++h) {
      EXPECT_TRUE(fabric.agent(h)
                      .Send(fabric.agent(h + 10).mac(), h, DataPayload{})
                      .ok());
    }
    fabric.Run();
    fabric.topo().SetLinkUp(li, true);
    fabric.Run();
  }

  result.db_topology = SerializeTopology(fabric.controller().db().mirror());
  result.final_time = fabric.Now();
  return result;
}

void ExpectIdentical(const RunResult& a, const RunResult& b) {
  EXPECT_EQ(a.final_time, b.final_time);
  EXPECT_EQ(a.db_topology, b.db_topology);
  ASSERT_EQ(a.trace.size(), b.trace.size()) << "event counts diverged";
  for (size_t i = 0; i < a.trace.size(); ++i) {
    ASSERT_EQ(a.trace[i], b.trace[i]) << "trace diverged at event " << i;
  }
}

TEST(DeterminismTest, DiscoveryBringUpTraceIsReproducible) {
  RunResult first = RunLifecycle(7, /*with_failure=*/false);
  RunResult second = RunLifecycle(7, /*with_failure=*/false);
  ASSERT_GT(first.trace.size(), 1000u) << "bring-up ran suspiciously few events";
  ExpectIdentical(first, second);
}

TEST(DeterminismTest, FailureRecoveryTraceIsReproducible) {
  RunResult first = RunLifecycle(7, /*with_failure=*/true);
  RunResult second = RunLifecycle(7, /*with_failure=*/true);
  ASSERT_GT(first.trace.size(), 1000u);
  ExpectIdentical(first, second);
}

uint64_t TraceDigest(const Trace& trace) {
  uint64_t h = 0;
  for (const auto& [at, seq] : trace) {
    h = footprint::FpKey(h, static_cast<uint64_t>(at), seq);
  }
  return h;
}

// The two tests above compare two runs of one build, so a change that moves
// the same events the same way in both runs passes them. These pin the traces
// themselves: every event's (at, seq), the event count and the end time of the
// probing bring-up and of the failure-recovery life-cycle. The event counts
// were recorded with one wheel event per queued controller CPU job, before
// CpuQueue; the digests and end times when path responses shrank to links only
// (each response serialises faster, so later events shift, none is added or
// lost). Re-record them only with a change that means to move events.
TEST(DeterminismTest, LifecycleTracesArePinned) {
  const RunResult bringup = RunLifecycle(7, /*with_failure=*/false);
  EXPECT_EQ(TraceDigest(bringup.trace), 13983004620411553215ull);
  EXPECT_EQ(bringup.trace.size(), 19003u);
  EXPECT_EQ(bringup.final_time, 321401168);
  const RunResult recovery = RunLifecycle(7, /*with_failure=*/true);
  EXPECT_EQ(TraceDigest(recovery.trace), 16712119320355650177ull);
  EXPECT_EQ(recovery.trace.size(), 30571u);
  EXPECT_EQ(recovery.final_time, 1525469909);
}

// Failure-recovery stress targeting the paths where hash-map iteration order
// could leak into the event stream: the ApplyBootstrap fan-out over pre-bootstrap
// queued destinations (HostAgent::pending_), and the PathTable::InvalidateEdge
// sweep (entry iteration decides starved-destination re-query order) driven
// twice by back-to-back link failures.
RunResult RunQueuedSendsAndDoubleFailure(uint64_t seed) {
  auto testbed = MakePaperTestbed();
  EXPECT_TRUE(testbed.ok());
  uint32_t spine0 = testbed.value().spines[0];
  uint32_t spine1 = testbed.value().spines[1];
  SimulatedFabric fabric(std::move(testbed.value().topo));

  RunResult result;
  fabric.sim().SetTraceHook(
      [&](TimeNs at, uint64_t seq) { result.trace.emplace_back(at, seq); });

  // Queue sends to several destinations BEFORE any bring-up: they sit in the
  // agent's pending map until the bootstrap lands, so the bootstrap's
  // request fan-out order is on the trace.
  for (uint32_t h : {17u, 4u, 22u, 9u, 13u}) {
    EXPECT_TRUE(fabric.agent(0).Send(fabric.agent(h).mac(), h, DataPayload{}).ok());
    EXPECT_TRUE(fabric.agent(3).Send(fabric.agent(h).mac(), h, DataPayload{}).ok());
  }

  ControllerConfig config;
  config.rng_seed = seed;
  DiscoveryConfig discovery;
  discovery.max_ports = 16;
  EXPECT_TRUE(fabric.BringUp(25, config, discovery));

  // Warm many path-table entries so the invalidation sweeps have real fan-out.
  for (uint32_t h = 0; h < 10; ++h) {
    EXPECT_TRUE(
        fabric.agent(h).Send(fabric.agent(h + 12).mac(), 100 + h, DataPayload{}).ok());
  }
  fabric.Run();

  // Two failures back to back: every cached route crossing either spine edge is
  // swept out, starving some destinations into synchronous re-queries.
  LinkIndex l0 = fabric.topo().LinkAtPort(spine0, 1);
  LinkIndex l1 = fabric.topo().LinkAtPort(spine1, 1);
  EXPECT_NE(l0, kInvalidLink);
  EXPECT_NE(l1, kInvalidLink);
  fabric.topo().SetLinkUp(l0, false);
  fabric.topo().SetLinkUp(l1, false);
  for (uint32_t h = 0; h < 10; ++h) {
    EXPECT_TRUE(
        fabric.agent(h).Send(fabric.agent(h + 12).mac(), 200 + h, DataPayload{}).ok());
  }
  fabric.Run();
  fabric.topo().SetLinkUp(l0, true);
  fabric.topo().SetLinkUp(l1, true);
  fabric.Run();

  result.db_topology = SerializeTopology(fabric.controller().db().mirror());
  result.final_time = fabric.Now();
  return result;
}

TEST(DeterminismTest, QueuedSendsAndDoubleFailureTraceIsReproducible) {
  RunResult first = RunQueuedSendsAndDoubleFailure(7);
  RunResult second = RunQueuedSendsAndDoubleFailure(7);
  ASSERT_GT(first.trace.size(), 1000u);
  ExpectIdentical(first, second);
}

// Gossip under concurrent link flaps: both spine uplinks flap down, up, and
// down again at identical virtual instants, so every flap lands as one
// same-timestamp batch of switch alarms whose gossip floods race across the
// fabric. The host-side observation merge is a last-writer-wins lattice keyed
// by origin time, so the converged host mirrors — not just the controller db —
// must be byte-identical across runs. This is the golden trace guarding the
// races the footprint detector is designed to catch.
RunResult RunGossipUnderConcurrentFlaps(uint64_t seed) {
  auto testbed = MakePaperTestbed();
  EXPECT_TRUE(testbed.ok());
  uint32_t spine0 = testbed.value().spines[0];
  uint32_t spine1 = testbed.value().spines[1];
  SimulatedFabric fabric(std::move(testbed.value().topo));

  RunResult result;
  fabric.sim().SetTraceHook(
      [&](TimeNs at, uint64_t seq) { result.trace.emplace_back(at, seq); });

  ControllerConfig config;
  config.rng_seed = seed;
  DiscoveryConfig discovery;
  discovery.max_ports = 16;
  EXPECT_TRUE(fabric.BringUp(25, config, discovery));

  for (uint32_t h = 0; h < 8; ++h) {
    EXPECT_TRUE(
        fabric.agent(h).Send(fabric.agent(h + 12).mac(), 300 + h, DataPayload{}).ok());
  }
  fabric.Run();

  LinkIndex l0 = fabric.topo().LinkAtPort(spine0, 1);
  LinkIndex l1 = fabric.topo().LinkAtPort(spine1, 1);
  EXPECT_NE(l0, kInvalidLink);
  EXPECT_NE(l1, kInvalidLink);
  // Three same-instant flap waves: down+down, up+up, down+down — each wave's
  // alarms, gossip floods, and controller patches are causally concurrent.
  fabric.topo().SetLinkUp(l0, false);
  fabric.topo().SetLinkUp(l1, false);
  for (uint32_t h = 0; h < 8; ++h) {
    EXPECT_TRUE(
        fabric.agent(h).Send(fabric.agent(h + 12).mac(), 400 + h, DataPayload{}).ok());
  }
  fabric.Run();
  fabric.topo().SetLinkUp(l0, true);
  fabric.topo().SetLinkUp(l1, true);
  fabric.Run();
  fabric.topo().SetLinkUp(l0, false);
  fabric.topo().SetLinkUp(l1, false);
  fabric.Run();
  fabric.topo().SetLinkUp(l0, true);
  fabric.topo().SetLinkUp(l1, true);
  fabric.Run();

  // Fold the converged host mirrors into the compared state, not only the
  // controller's: gossip races corrupt host caches first.
  result.db_topology = SerializeTopology(fabric.controller().db().mirror());
  for (uint32_t h = 0; h < static_cast<uint32_t>(fabric.host_count()); ++h) {
    result.db_topology += SerializeTopology(fabric.agent(h).topo_cache().db().mirror());
  }
  result.final_time = fabric.Now();
  return result;
}

TEST(DeterminismTest, GossipUnderConcurrentFlapsTraceIsReproducible) {
  RunResult first = RunGossipUnderConcurrentFlaps(7);
  RunResult second = RunGossipUnderConcurrentFlaps(7);
  ASSERT_GT(first.trace.size(), 1000u);
  ExpectIdentical(first, second);
}

// Whole-scenario replays: each scenario runs twice and must end with the same
// converged control plane (the controller's mirror plus every host's), the same
// executed event count and the same end time. The chaos schedules here are the
// only replays of flapping links, a switch outage and gray loss in this suite.
uint64_t Fnv1a(const std::string& bytes, uint64_t h = 0xCBF29CE484222325ULL) {
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001B3ULL;
  }
  return h;
}

struct ReplayResult {
  uint64_t digest = 0;
  uint64_t events = 0;
  TimeNs end_time = 0;
  uint64_t dropped_gray = 0;
  uint64_t delivered = 0;
};

ReplayResult Snapshot(SimulatedFabric& fabric) {
  ReplayResult r;
  r.digest = Fnv1a(SerializeTopology(fabric.controller().db().mirror()));
  for (uint32_t h = 0; h < static_cast<uint32_t>(fabric.host_count()); ++h) {
    r.digest = Fnv1a(SerializeTopology(fabric.agent(h).topo_cache().db().mirror()), r.digest);
  }
  r.events = fabric.executed_events();
  r.end_time = fabric.Now();
  r.dropped_gray = fabric.net().stats().dropped_gray;
  r.delivered = fabric.net().stats().delivered;
  return r;
}

void ExpectSameReplay(const ReplayResult& a, const ReplayResult& b) {
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.dropped_gray, b.dropped_gray);
  EXPECT_EQ(a.delivered, b.delivered);
}

// Probing discovery, then both spine uplinks die at one instant while hosts
// send, then both revive.
ReplayResult RunDiscoveryAndDoubleSpineFailure() {
  auto testbed = MakePaperTestbed();
  EXPECT_TRUE(testbed.ok());
  const uint32_t spine0 = testbed.value().spines[0];
  const uint32_t spine1 = testbed.value().spines[1];
  SimulatedFabric fabric(std::move(testbed.value().topo));

  ControllerConfig config;
  config.rng_seed = 7;
  DiscoveryConfig discovery;
  discovery.max_ports = 16;
  EXPECT_TRUE(fabric.BringUp(25, config, discovery));
  fabric.Run();

  const LinkIndex l0 = fabric.topo().LinkAtPort(spine0, 1);
  const LinkIndex l1 = fabric.topo().LinkAtPort(spine1, 1);
  fabric.topo().SetLinkUp(l0, false);
  fabric.topo().SetLinkUp(l1, false);
  for (uint32_t h = 0; h < 8; ++h) {
    (void)fabric.agent(h).Send(fabric.agent(h + 10).mac(), 100 + h, DataPayload{});
  }
  fabric.Run();
  fabric.topo().SetLinkUp(l0, true);
  fabric.topo().SetLinkUp(l1, true);
  fabric.Run();
  return Snapshot(fabric);
}

struct ProxyCounts {
  uint64_t switch_packets = 0;  // seen by the proxies in front of the switches
  uint64_t switch_shared = 0;   // of those, handed over by const reference
  uint64_t host_packets = 0;
  uint64_t delivered = 0;  // by the network while the proxies were in place
};

// A NetNode in front of a switch that overrides only the two HandlePacket
// overloads, as a tracing proxy written before NetNode::Receive would: the
// fabric reaches it through Receive's default, and it counts what it sees.
class CountingProxy : public NetNode {
 public:
  CountingProxy(NetNode* inner, ProxyCounts* counts) : inner_(inner), counts_(counts) {}
  void HandlePacket(const Packet& pkt, PortNum in_port) override {
    ++counts_->switch_packets;
    ++counts_->switch_shared;
    inner_->HandlePacket(pkt, in_port);
  }
  void HandlePacket(Packet&& pkt, PortNum in_port) override {
    ++counts_->switch_packets;
    inner_->HandlePacket(std::move(pkt), in_port);
  }
  void HandlePortChange(PortNum port, bool up) override { inner_->HandlePortChange(port, up); }

 private:
  NetNode* inner_;
  ProxyCounts* counts_;
};

// Counts what reaches a host without leaving the handle path.
class HandleCounter : public NetNode {
 public:
  HandleCounter(HostAgent* inner, ProxyCounts* counts) : inner_(inner), counts_(counts) {}
  void Receive(PooledPacket pkt, PortNum in_port) override {
    ++counts_->host_packets;
    inner_->Receive(std::move(pkt), in_port);
  }
  void HandlePacket(const Packet& pkt, PortNum in_port) override {
    inner_->HandlePacket(pkt, in_port);
  }
  void HandlePortChange(PortNum port, bool up) override { inner_->HandlePortChange(port, up); }

 private:
  HostAgent* inner_;
  ProxyCounts* counts_;
};

// A seeded chaos schedule on an adopted fabric: 3 flapping links, an outage,
// and `gray_links` lossy links. Gray drops are keyed on (link, direction,
// packet id), and packet ids come from per-origin counters. With `proxies`,
// every switch sits behind a CountingProxy and every host behind a
// HandleCounter for the schedule.
ReplayResult RunChurnSchedule(uint32_t gray_links, ProxyCounts* proxies = nullptr) {
  auto testbed = MakePaperTestbed();
  EXPECT_TRUE(testbed.ok());
  SimulatedFabric fabric(std::move(testbed.value().topo));
  fabric.BringUpAdopted(25);
  std::vector<std::unique_ptr<NetNode>> fronts;
  if (proxies != nullptr) {
    for (uint32_t s = 0; s < fabric.switch_count(); ++s) {
      fronts.push_back(
          std::make_unique<CountingProxy>(&fabric.dumb_switch(s), proxies));
      fabric.net().RegisterSwitchNode(s, fronts.back().get());
    }
    for (uint32_t h = 0; h < fabric.host_count(); ++h) {
      fronts.push_back(std::make_unique<HandleCounter>(&fabric.agent(h), proxies));
      fabric.net().RegisterHostNode(h, fronts.back().get());
    }
    proxies->delivered = fabric.net().stats().delivered;
  }

  chaos::ChaosConfig config;
  config.seed = 11;
  config.horizon = Ms(40);
  config.flap.links = 3;
  config.gray.links = gray_links;
  config.outage.enabled = true;
  chaos::ChaosSchedule sched = chaos::GenerateSchedule(fabric.topo(), config);
  EXPECT_FALSE(sched.empty());
  chaos::RunSchedule(fabric, sched);
  EXPECT_TRUE(chaos::CheckConvergence(fabric, sched.TouchedLinks()).empty());
  ReplayResult result = Snapshot(fabric);
  if (proxies != nullptr) {
    proxies->delivered = result.delivered - proxies->delivered;
    for (uint32_t s = 0; s < fabric.switch_count(); ++s) {
      fabric.net().RegisterSwitchNode(s, &fabric.dumb_switch(s));
    }
    for (uint32_t h = 0; h < fabric.host_count(); ++h) {
      fabric.net().RegisterHostNode(h, &fabric.agent(h));
    }
  }
  return result;
}

TEST(DeterminismTest, DiscoveryAndDoubleSpineFailureReplayIsBitIdentical) {
  ReplayResult first = RunDiscoveryAndDoubleSpineFailure();
  ReplayResult second = RunDiscoveryAndDoubleSpineFailure();
  ASSERT_GT(first.events, 1000u);
  ExpectSameReplay(first, second);
}

TEST(DeterminismTest, ChurnScheduleReplayIsBitIdentical) {
  ReplayResult first = RunChurnSchedule(/*gray_links=*/0);
  ReplayResult second = RunChurnSchedule(/*gray_links=*/0);
  ASSERT_GT(first.events, 1000u);
  EXPECT_EQ(first.dropped_gray, 0u);
  ExpectSameReplay(first, second);
}

TEST(DeterminismTest, GrayLossScheduleReplayIsBitIdentical) {
  ReplayResult first = RunChurnSchedule(/*gray_links=*/2);
  ReplayResult second = RunChurnSchedule(/*gray_links=*/2);
  ASSERT_GT(first.events, 1000u);
  EXPECT_GT(first.dropped_gray, 0u) << "the schedule never ate a packet";
  ExpectSameReplay(first, second);
}

// A proxy that overrides only the two HandlePacket overloads, registered in
// front of every switch, reaches the switches through NetNode::Receive's
// fallback (shared flood bodies by const reference, the rest by rvalue). It
// sees every packet the fabric delivers to a switch, and the run converges to
// the same digest, event count and drops as the handle path.
TEST(DeterminismTest, ProxiedSwitchesSeeEveryPacketAndConverge) {
  const ReplayResult direct = RunChurnSchedule(/*gray_links=*/2);
  ProxyCounts counts;
  const ReplayResult proxied = RunChurnSchedule(/*gray_links=*/2, &counts);
  ExpectSameReplay(direct, proxied);
  EXPECT_GT(counts.switch_shared, 0u) << "no shared flood body reached a proxy";
  EXPECT_GT(counts.switch_packets, counts.switch_shared);
  EXPECT_GT(counts.host_packets, 0u);
  EXPECT_EQ(counts.switch_packets + counts.host_packets, counts.delivered);
}

// The controller seeds a fresh tie-break stream per query (seed ^ query key,
// ServePathRequest) instead of drawing from one shared stream, so that the
// order concurrent queries drain off the CPU queue cannot leak into route
// content (the shared-rng service-order race of DESIGN.md §11). Two properties
// replace the old "different seeds must diverge the whole trace" check, which
// held only *because* of that race:
//
//  1. Liveness — the seed knob still works: over a degraded fabric, different
//     seeds pick different equal-cost primaries for some queries.
//  2. Convergence — tie-break labels never reach persistent state: a path
//     graph enumerates the complete ε-good subgraph whichever member is
//     labelled primary, and hosts rebuild routes from their merged caches, so
//     the converged topology databases are identical across seeds.
TEST(DeterminismTest, SeedShapesTieBreaksButConvergedStateIsSeedInvariant) {
  auto testbed = MakePaperTestbed();
  ASSERT_TRUE(testbed.ok());
  uint32_t spine0 = testbed.value().spines[0];
  Topology topo = std::move(testbed.value().topo);
  LinkIndex li = topo.LinkAtPort(spine0, 1);
  ASSERT_NE(li, kInvalidLink);
  topo.SetLinkUp(li, false);
  SwitchGraph graph(topo);
  PathGraphParams params;
  PathGraphScratch scratch;
  int primary_diffs = 0;
  for (uint32_t s = 0; s < topo.switch_count(); ++s) {
    for (uint32_t d = 0; d < topo.switch_count(); ++d) {
      if (s == d) {
        continue;
      }
      // The same per-query derivation the controller uses, under two seeds.
      const uint64_t key = footprint::FpKey(1000 + s, 2000 + d, 0);
      Rng rng_a(7 ^ key);
      Rng rng_b(8 ^ key);
      auto a = BuildPathGraph(topo, graph, s, d, params, &rng_a, scratch);
      auto b = BuildPathGraph(topo, graph, s, d, params, &rng_b, scratch);
      ASSERT_EQ(a.ok(), b.ok());
      if (!a.ok()) {
        continue;
      }
      primary_diffs += a.value().primary != b.value().primary ? 1 : 0;
      // Same complete subgraph regardless of which member became primary.
      auto links_a = a.value().links;
      auto links_b = b.value().links;
      std::sort(links_a.begin(), links_a.end());
      std::sort(links_b.begin(), links_b.end());
      EXPECT_EQ(links_a, links_b) << "s=" << s << " d=" << d;
    }
  }
  EXPECT_GT(primary_diffs, 0) << "seed no longer influences equal-cost tie-breaks";

  RunResult a = RunLifecycle(7, /*with_failure=*/true);
  RunResult b = RunLifecycle(8, /*with_failure=*/true);
  EXPECT_EQ(a.db_topology, b.db_topology)
      << "tie-break seed leaked into converged topology state";
}

}  // namespace
}  // namespace dumbnet
