// wire_latency: wall-clock cost of the deployment runtime (src/wire).
//
// Unlike every other bench in this directory, nothing here is simulated time:
// a real 3-switch fabric is booted as threads + Unix sockets, and the numbers
// are CLOCK_MONOTONIC wall time as a host application would experience them.
//
// Two measurements:
//   * per-hop forwarding cost — echo RTTs along explicitly pinned tag paths of
//     1, 2, and 3 switch hops between the same pair of endpoints where
//     possible. The 2-hop and 3-hop paths share src, dst, and return route, so
//     their p50 difference isolates the wall-clock cost of one extra software
//     switch traversal (frame decode + tag forward + frame encode + socket).
//   * failover latency — a live inter-switch link carrying a warmed flow is
//     killed, and the gap until the host's repair restores delivery is timed
//     with a tight 20 ms-timeout ping loop. Repeated over several rounds with
//     the link revived in between.
//
// Flags: --quick (fewer samples), --json <path> (measurement rows),
// --metrics-json <path> (telemetry registry dump: wire.oneway_ns,
// wire.bench.rtt_h*_ns, wire.failover_ns).

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/contracts.h"
#include "src/telemetry/telemetry.h"
#include "src/topo/topology.h"
#include "src/util/logging.h"
#include "src/util/stats.h"
#include "src/wire/clock.h"
#include "src/wire/runtime.h"

namespace dumbnet {
namespace {

using wire::MonotonicNowNs;
using wire::PingOutcome;
using wire::SleepNs;
using wire::WireFabric;
using wire::WireFabricOptions;

// Same triangle as dumbnet-net's testbed: 3 switches, 2 hosts each, every
// inter-switch pair directly linked so a 3-hop detour always exists.
Topology MakeTriangle() {
  Topology topo;
  const uint32_t s0 = topo.AddSwitch(8);
  const uint32_t s1 = topo.AddSwitch(8);
  const uint32_t s2 = topo.AddSwitch(8);
  (void)topo.ConnectSwitches(s0, 1, s1, 1);
  (void)topo.ConnectSwitches(s1, 2, s2, 1);
  (void)topo.ConnectSwitches(s2, 2, s0, 2);
  for (uint32_t sw : {s0, s1, s2}) {
    for (PortNum port = 3; port <= 4; ++port) {
      (void)topo.AttachHost(topo.AddHost(), sw, port);
    }
  }
  return topo;
}

struct PinnedPath {
  const char* name;
  int hops;
  uint32_t src;
  uint32_t dst;
  std::vector<uint64_t> uids;  // explicit switch route for SendOnPath
};

LogHistogram MeasureRtts(WireFabric& fabric, const PinnedPath& path,
                         int warmup, int samples, uint64_t* flow) {
  LogHistogram rtts;
  // DN_HISTOGRAM_RECORD caches its metric by call site, so the per-hop-count
  // registry histograms are looked up directly.
  telemetry::HistogramMetric* metric =
      telemetry::MetricsRegistry::Global().GetHistogram(
          std::string("wire.bench.rtt_h") + std::to_string(path.hops) + "_ns");
  for (int i = 0; i < warmup + samples; ++i) {
    // Warmup pings go unpinned: the controller's path responses (route +
    // detour subgraph) are what teach the host the switch UIDs that
    // SendOnPath later compiles into tags.
    const PingOutcome out =
        i < warmup
            ? fabric.Ping(path.src, path.dst, (*flow)++, Sec(2))
            : fabric.Ping(path.src, path.dst, (*flow)++, Sec(2), path.uids);
    if (!out.ok) {
      if (!out.error.empty()) {
        std::fprintf(stderr, "wire_latency: ping %s: %s\n", path.name,
                     out.error.c_str());
      }
      continue;  // a lost ping under load; the histogram just loses a sample
    }
    if (i >= warmup) {
      rtts.Add(static_cast<double>(out.rtt_ns));
      metric->Record(static_cast<double>(out.rtt_ns));
    }
  }
  return rtts;
}

}  // namespace
}  // namespace dumbnet

int main(int argc, char** argv) {
  using namespace dumbnet;
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::Banner("wire_latency: wall-clock per-hop + failover cost of the wire runtime",
                "deployment runtime (no paper figure; real sockets, real clock)");

  telemetry::SetEnabled(true);
  // Live-fire the hot-path contract checker across the whole run: node threads
  // execute the annotated reactor loop, frame decoder, PathTable lookup and
  // rank-annotated locks for real. CI gates this bench's metrics JSON on
  // contracts.hot_allocs == 0 and contracts.rank_inversions == 0.
  contracts::SetEnabled(true);
  if (std::getenv("DUMBNET_WIRE_DEBUG") != nullptr) {
    SetLogLevel(LogLevel::kDebug);
  }

  Topology topo = MakeTriangle();
  WireFabricOptions fopts;
  fopts.node.disc_config.max_ports = 8;
  fopts.node.disc_config.probe_timeout = Ms(50);
  fopts.discovery_timeout = Sec(10);
  WireFabric fabric(topo, fopts);
  Status status = fabric.Start();
  if (status.ok()) {
    status = fabric.RunDiscovery();
  }
  if (!status.ok()) {
    std::fprintf(stderr, "wire_latency: fabric bring-up failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }

  const int samples = args.quick ? 40 : 200;
  const int warmup = 5;
  const int failover_rounds = args.quick ? 2 : 5;
  uint64_t flow = 1;

  // Host layout: h0,h1 on S0; h2,h3 on S1; h4,h5 on S2. The 2- and 3-hop
  // paths share endpoints (h0 -> h4), so only the pinned forward route differs.
  const uint64_t uid0 = topo.switch_at(0).uid;
  const uint64_t uid1 = topo.switch_at(1).uid;
  const uint64_t uid2 = topo.switch_at(2).uid;
  const std::vector<PinnedPath> paths = {
      {"h1_same_switch", 1, 0, 1, {uid0}},
      {"h2_direct", 2, 0, 4, {uid0, uid2}},
      {"h3_detour", 3, 0, 4, {uid0, uid1, uid2}},
  };

  bench::JsonReporter report;
  double p50_by_hops[4] = {0, 0, 0, 0};
  for (const PinnedPath& path : paths) {
    LogHistogram rtts = MeasureRtts(fabric, path, warmup, samples, &flow);
    if (rtts.count() == 0) {
      std::fprintf(stderr, "wire_latency: no successful pings on %s\n",
                   path.name);
      return 1;
    }
    p50_by_hops[path.hops] = rtts.Percentile(50);
    std::printf("%-16s %d hops  rtt p50 %8.1f us  p90 %8.1f us  p99 %8.1f us  (%zu ok)\n",
                path.name, path.hops, rtts.Percentile(50) / 1e3,
                rtts.Percentile(90) / 1e3, rtts.Percentile(99) / 1e3,
                rtts.count());
    const bench::JsonReporter::Params params = {
        {"hops", std::to_string(path.hops)}, {"path", path.name}};
    report.Add("wire_latency", "rtt_p50", rtts.Percentile(50), "ns", params);
    report.Add("wire_latency", "rtt_p90", rtts.Percentile(90), "ns", params);
    report.Add("wire_latency", "rtt_p99", rtts.Percentile(99), "ns", params);
  }

  // Same endpoints, one extra pinned switch traversal: the per-hop cost.
  const double per_hop_ns = p50_by_hops[3] - p50_by_hops[2];
  std::printf("per-hop forwarding cost (3-hop p50 - 2-hop p50): %.1f us\n",
              per_hop_ns / 1e3);
  report.Add("wire_latency", "per_hop_p50", per_hop_ns, "ns");

  // --- Failover ---------------------------------------------------------------
  // Flow h0 -> h2 initially rides the S0<->S1 link (the unique shortest
  // route). Each round kills whichever of S0's two uplinks the previous repair
  // moved the traffic onto, so every kill severs the active route. The first
  // kill waits out the switches' 1 s alarm-suppression window (opened by the
  // bring-up port-up alarms), else the deferred alarm masquerades as ~900 ms
  // of failover latency.
  const LinkIndex victims[2] = {topo.LinkAtPort(0, 1), topo.LinkAtPort(0, 2)};
  LogHistogram gaps;
  SleepNs(Ms(1200));
  for (int round = 0; round < failover_rounds; ++round) {
    const LinkIndex victim = victims[round % 2];
    const uint64_t drill_flow = flow++;
    bool warmed = false;
    for (int i = 0; i < 5 && !warmed; ++i) {
      warmed = fabric.Ping(0, 2, drill_flow, Sec(2)).ok;
    }
    if (!warmed) {
      std::fprintf(stderr, "wire_latency: warmup failed in round %d\n", round);
      return 1;
    }
    const int64_t killed_at = MonotonicNowNs();
    fabric.KillLink(victim);
    const int64_t deadline = killed_at + Sec(15);
    int64_t gap = -1;
    int failures = 0;
    while (MonotonicNowNs() < deadline) {
      if (fabric.Ping(0, 2, drill_flow, Ms(20)).ok) {
        gap = MonotonicNowNs() - killed_at;
        break;
      }
      ++failures;
    }
    if (gap < 0) {
      std::fprintf(stderr, "wire_latency: no recovery in round %d\n", round);
      return 1;
    }
    if (failures == 0) {
      // The route never crossed the victim; nothing was measured this round.
      std::printf("failover round %d: flow unaffected by kill, skipped\n", round);
    } else {
      gaps.Add(static_cast<double>(gap));
      DN_HISTOGRAM_RECORD("wire.failover_ns", static_cast<double>(gap));
      std::printf("failover round %d: recovered in %.2f ms\n", round,
                  static_cast<double>(gap) / 1e6);
    }
    fabric.ReviveLink(victim);
    // Let the link re-handshake, the controller's patch flood settle, and the
    // switches' alarm-suppression window (1 s) expire, so the next round's
    // fresh flow is routed across the victim again and its kill is announced.
    SleepNs(Ms(1500));
  }
  if (gaps.count() > 0) {
    std::printf("failover latency: p50 %.2f ms  max %.2f ms  (%zu rounds)\n",
                gaps.Percentile(50) / 1e6, gaps.max() / 1e6, gaps.count());
    report.Add("wire_latency", "failover_p50", gaps.Percentile(50), "ns");
    report.Add("wire_latency", "failover_max", gaps.max(), "ns");
  }

  fabric.Shutdown();
  contracts::SetEnabled(false);
  const contracts::CounterSnapshot contract_counts = contracts::Counters();
  std::printf("contracts: hot_allocs=%llu rank_inversions=%llu reactor_blocks=%llu\n",
              static_cast<unsigned long long>(contract_counts.hot_allocs),
              static_cast<unsigned long long>(contract_counts.rank_inversions),
              static_cast<unsigned long long>(contract_counts.reactor_blocks));
  if (contract_counts.hot_allocs != 0 || contract_counts.rank_inversions != 0) {
    std::printf("  last violation: %s\n", contracts::LastViolationMessage());
  }
  contracts::PublishTelemetry();
  report.WriteTo(args.json_path);
  bench::WriteMetricsJson(args.metrics_path);
  return 0;
}
