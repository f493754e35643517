// perf_core: microbenchmarks for the two engines everything else sits on — the
// event core (timer wheel + pooled callbacks) and the routing compute path
// (CSR graph + scratch SSSP + tree-shared batch path graphs).
//
// Rates are machine-bound, so they are compared only against another tree run
// on the same machine: tools/ab_gate.py times events_per_sec and
// path_graphs_per_sec of a base checkout and this one in interleaved pairs.
//
//   events_per_sec        cancel-heavy drain through the timer wheel
//   path_graphs_per_sec   one-source/many-destination tree-shared batch
//   bring_up_wall         full discovery + bootstrap wall-clock, 1k/4k/16k hosts
//   host_routes_per_sec   TopoCache::ComputeRoutes over every edge-switch pair
//   packet_path_*         warm fat-tree ping mesh: wall ns per switch hop, events/s
//   notification_storm_*  fat-tree link-down storms: wall ns per delivered copy,
//                         peak descriptors and packet bodies
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/analysis/audit.h"
#include "src/analysis/contracts.h"
#include "src/core/fabric.h"
#include "src/host/topo_cache.h"
#include "src/routing/path_graph.h"
#include "src/routing/shortest_path.h"
#include "src/topo/generators.h"

using namespace dumbnet;

namespace {

// Runs one bench section with the runtime contract checker on and returns the
// hot-scope allocations it observed (the no-alloc annotations in PathTable /
// HostAgent / Network are live during `fn`). CI gates on every section
// reporting zero. Enabled per-section so one-time static registrations (first
// telemetry counter use, pool spin-up) outside a section are never charged.
uint64_t HotAllocsDuring(const std::function<void()>& fn) {
  const uint64_t before = dumbnet::contracts::Counters().hot_allocs;
  dumbnet::contracts::SetEnabled(true);
  fn();
  dumbnet::contracts::SetEnabled(false);
  return dumbnet::contracts::Counters().hot_allocs - before;
}

double WallSeconds(const std::function<void()>& fn) {
  // dn-lint: allow(wall-clock, benches measure real elapsed time by design)
  auto start = std::chrono::steady_clock::now();
  fn();
  // dn-lint: allow(wall-clock, benches measure real elapsed time by design)
  auto end = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(end - start).count();
}

// ---------------------------------------------------------------------------
// Workload 1: cancel-heavy event drain. The retransmit-timer pattern that
// dominates transport runs: schedule a far-out timeout, beat it with an ack,
// cancel, repeat — with a window of timers outstanding at all times.
// ---------------------------------------------------------------------------
struct CancelDrainResult {
  double events_per_sec = 0;
  uint64_t pool_slots = 0;  // final slot-pool size (memory bound)
};

CancelDrainResult RunCancelDrain(uint64_t total_events) {
  CancelDrainResult r;
  const uint64_t window = 512;  // outstanding timeouts at any moment

  double secs = WallSeconds([&] {
    Simulator sim;
    std::vector<EventHandle> timers(window);
    uint64_t fired = 0;
    std::function<void(uint64_t)> tick = [&](uint64_t i) {
      if (i >= total_events) {
        return;
      }
      // Cancel the oldest outstanding timeout (its "ack" arrived)...
      sim.Cancel(timers[i % window]);
      // ...arm a replacement far in the future...
      timers[i % window] =
          sim.ScheduleAfter(Ms(50) + static_cast<TimeNs>(i % 97), [&fired] { ++fired; });
      // ...and keep the clock moving.
      sim.ScheduleAfter(Us(1), [&tick, i] { tick(i + 1); });
    };
    sim.ScheduleAt(0, [&tick] { tick(0); });
    sim.Run();
    r.pool_slots = sim.mem_stats().pool_slots;
  });
  r.events_per_sec = static_cast<double>(2 * total_events) / secs;
  return r;
}

// ---------------------------------------------------------------------------
// Workload 2: path graphs from one source to every other edge switch — what the
// controller does when precomputing routes for a host's flow fan-out.
// ---------------------------------------------------------------------------
struct BatchResult {
  double per_sec = 0;
  size_t graphs = 0;
  size_t failures = 0;
};

BatchResult RunPathGraphBatch(const Topology& topo, uint32_t src,
                              const std::vector<uint32_t>& dsts, int repeats) {
  BatchResult r;
  r.graphs = dsts.size() * static_cast<size_t>(repeats);
  PathGraphParams params;
  SwitchGraph graph(topo);
  double secs = WallSeconds([&] {
    Rng rng(42);
    SsspScratch tree_scratch;
    for (int it = 0; it < repeats; ++it) {
      SsspTree tree = BuildSsspTree(graph, src, &rng, &tree_scratch);
      auto graphs = BuildPathGraphBatch(topo, graph, tree, dsts, params, &rng);
      for (const auto& pg : graphs) {
        if (!pg.ok()) {
          ++r.failures;
        }
      }
    }
  });
  r.per_sec = static_cast<double>(r.graphs) / secs;
  return r;
}

// ---------------------------------------------------------------------------
// Workload 3: full bring-up (probing discovery + bootstraps) wall-clock on
// leaf-spine fabrics of 1k/4k/16k hosts. A row times a healthy fabric or none:
// a bring-up that leaves any host dark, or misses a switch, fails the run.
// (Fat-trees past ~30k hosts are out of reach until the directory stops riding
// in every bootstrap: one bootstrap would outgrow the 512 KiB uplink queue.)
// ---------------------------------------------------------------------------
struct BringUpResult {
  double secs = 0;
  size_t hosts = 0;
  size_t bootstrapped = 0;  // hosts holding a bootstrap when bring-up returned
  bool healthy = false;     // BringUp() true, every switch found, no dark host
};

BringUpResult RunBringUp(uint32_t leaves, uint32_t hosts_per_leaf) {
  LeafSpineConfig config;
  config.num_spine = 4;
  config.num_leaf = leaves;
  config.hosts_per_leaf = hosts_per_leaf;
  config.switch_ports = static_cast<uint8_t>(std::min<uint32_t>(hosts_per_leaf + 8, 254));
  auto ls = MakeLeafSpine(config);
  SimulatedFabric fabric(std::move(ls.value().topo));
  DiscoveryConfig discovery;
  discovery.max_ports = config.switch_ports;
  BringUpResult r;
  r.hosts = fabric.host_count();
  bool up = false;
  r.secs = WallSeconds([&] { up = fabric.BringUp(0, ControllerConfig(), discovery); });
  for (uint32_t h = 0; h < r.hosts; ++h) {
    if (fabric.agent(h).bootstrapped()) {
      ++r.bootstrapped;
    }
  }
  const size_t found = fabric.controller().db().mirror().switch_count();
  r.healthy = up && found == fabric.topo().switch_count() && r.bootstrapped == r.hosts;
  if (!r.healthy) {
    std::fprintf(stderr,
                 "bring-up of %zu hosts failed: BringUp() %s, %zu of %zu switches found, "
                 "%zu hosts bootstrapped\n",
                 r.hosts, up ? "true" : "false", found, fabric.topo().switch_count(),
                 r.bootstrapped);
  }
  return r;
}

// ---------------------------------------------------------------------------
// Workload 4: host route computation. A TopoCache holding the whole fat-tree
// k=8 (every link, every host) builds the k=4 entry from each edge switch to a
// host on every other edge switch. The cold pass runs on a fresh copy of the
// cache, so each pair costs one Yen run; the warm pass repeats the pairs on
// that copy, where every Yen result comes from the snapshot's memo and only the
// tags are compiled.
// ---------------------------------------------------------------------------
struct HostRoutesResult {
  double cold_per_sec = 0;
  double warm_per_sec = 0;
  size_t pairs = 0;
  size_t failures = 0;
};

HostRoutesResult RunHostRoutes(int repeats) {
  FatTreeConfig config;
  config.k = 8;
  auto ft = MakeFatTree(config);
  const Topology& topo = ft.value().topo;
  TopoCache filled;
  for (LinkIndex li = 0; li < topo.link_count(); ++li) {
    const Link& l = topo.link_at(li);
    if (l.a.node.is_switch() && l.b.node.is_switch()) {
      (void)filled.db().AddLink(WireLink{topo.switch_at(l.a.node.index).uid, l.a.port,
                                         topo.switch_at(l.b.node.index).uid, l.b.port});
    }
  }
  // (edge switch uid, mac of one host attached to it)
  std::vector<std::pair<uint64_t, uint64_t>> edges;
  for (uint32_t h = 0; h < topo.host_count(); ++h) {
    const Endpoint up = topo.HostUplink(h).value();
    const uint64_t uid = topo.switch_at(up.node.index).uid;
    filled.UpsertHost(HostLocation{topo.host_at(h).mac, uid, up.port});
    if (std::none_of(edges.begin(), edges.end(),
                     [uid](const auto& e) { return e.first == uid; })) {
      edges.emplace_back(uid, topo.host_at(h).mac);
    }
  }

  HostRoutesResult r;
  auto pass = [&r, &edges](const TopoCache& cache) {
    for (const auto& src : edges) {
      for (const auto& [dst_uid, dst_mac] : edges) {
        if (dst_uid != src.first && !cache.ComputeRoutes(src.first, dst_mac, 4).ok()) {
          ++r.failures;
        }
      }
    }
  };
  r.pairs = edges.size() * (edges.size() - 1);
  double cold = 0;
  double warm = 0;
  for (int rep = 0; rep < repeats; ++rep) {
    TopoCache cache = filled;  // empty memo
    cold += WallSeconds([&] { pass(cache); });
    warm += WallSeconds([&] { pass(cache); });
  }
  r.cold_per_sec = static_cast<double>(r.pairs) * repeats / cold;
  r.warm_per_sec = static_cast<double>(r.pairs) * repeats / warm;
  return r;
}

// ---------------------------------------------------------------------------
// Workload 5: the packet path. A fat-tree k=8 with every route cached runs a
// ping mesh: each round, every host pings 8 partners spread over the fabric
// (64-byte pings, each echoed), and the fabric drains. This is host send,
// transmit, switch tag pop and host delivery and little else, so wall ns per
// switch hop (wall time over switch forwards) prices the per-packet path end
// to end.
// ---------------------------------------------------------------------------
struct PacketPathResult {
  double ns_per_hop = 0;
  double events_per_sec = 0;
  uint64_t hops = 0;
  uint64_t events = 0;
  uint64_t pings = 0;
  uint64_t echoes = 0;
};

PacketPathResult RunPacketPath(int rounds) {
  FatTreeConfig config;
  config.k = 8;
  auto ft = MakeFatTree(config);
  SimulatedFabric fabric(std::move(ft.value().topo));
  fabric.BringUpAdopted(0);

  PacketPathResult r;
  const uint32_t n = static_cast<uint32_t>(fabric.host_count());
  for (uint32_t h = 0; h < n; ++h) {
    fabric.agent(h).SetDataHandler([&fabric, &r, h](const Packet& pkt, const DataPayload& data) {
      if (data.is_ack) {
        ++r.echoes;
        return;
      }
      DataPayload echo = data;
      echo.is_ack = true;
      (void)fabric.agent(h).Send(pkt.eth.src_mac, data.flow_id, echo);
    });
  }
  constexpr uint32_t kPartners = 8;
  uint64_t seq = 0;
  auto round = [&] {
    for (uint32_t h = 0; h < n; ++h) {
      for (uint32_t j = 0; j < kPartners; ++j) {
        const uint32_t partner = (h + 1 + j * (n / kPartners)) % n;
        DataPayload ping;
        ping.flow_id = (static_cast<uint64_t>(h) << 8) | j;
        ping.seq = seq++;
        ping.bytes = 64;
        (void)fabric.agent(h).Send(fabric.agent(partner).mac(), ping.flow_id, ping);
      }
    }
    fabric.Run();
  };
  round();  // warm-up: every (host, partner) route gets cached
  auto forwarded = [&fabric] {
    uint64_t total = 0;
    for (uint32_t s = 0; s < fabric.switch_count(); ++s) {
      total += fabric.dumb_switch(s).stats().forwarded;
    }
    return total;
  };
  const uint64_t hops_before = forwarded();
  const uint64_t events_before = fabric.executed_events();
  const uint64_t echoes_before = r.echoes;
  const double secs = WallSeconds([&] {
    for (int i = 0; i < rounds; ++i) {
      round();
    }
  });
  r.hops = forwarded() - hops_before;
  r.events = fabric.executed_events() - events_before;
  r.pings = static_cast<uint64_t>(rounds) * n * kPartners;
  r.echoes -= echoes_before;
  r.ns_per_hop = secs * 1e9 / static_cast<double>(r.hops);
  r.events_per_sec = static_cast<double>(r.events) / secs;
  return r;
}

// ---------------------------------------------------------------------------
// Workload 6: a notification storm. On a fat-tree k=8 with adopted bring-up,
// one aggregation-core link goes down and the fabric runs to quiescence, then
// it comes back up and the fabric runs again; each round takes another link.
// Every delivery of the storm is a hop-limited flood copy or the hosts'
// reaction to one, so wall ns per delivered copy prices the flood path, and
// the pools' high-water marks show how many bodies its copies shared.
// ---------------------------------------------------------------------------
struct StormResult {
  double ns_per_copy = 0;
  uint64_t copies = 0;
  size_t descriptors_peak = 0;
  size_t bodies_peak = 0;
  size_t left_live = 0;  // descriptors and bodies still out at quiescence
};

StormResult RunNotificationStorm(int rounds) {
  FatTreeConfig config;
  config.k = 8;
  auto ft = MakeFatTree(config);
  std::vector<std::pair<uint32_t, uint32_t>> agg_core;  // (aggregation, core) pairs
  for (uint32_t agg : ft.value().aggregation) {
    for (uint32_t core : ft.value().core) {
      agg_core.emplace_back(agg, core);
    }
  }
  SimulatedFabric fabric(std::move(ft.value().topo));
  fabric.BringUpAdopted(0);
  std::vector<LinkIndex> links;
  const Topology& topo = fabric.topo();
  for (LinkIndex li = 0; li < topo.link_count(); ++li) {
    const Link& link = topo.link_at(li);
    for (const auto& [agg, core] : agg_core) {
      if ((link.a.node == NodeId::Switch(agg) && link.b.node == NodeId::Switch(core)) ||
          (link.b.node == NodeId::Switch(agg) && link.a.node == NodeId::Switch(core))) {
        links.push_back(li);
      }
    }
  }
  StormResult r;
  const uint64_t delivered_before = fabric.net().stats().delivered;
  const double secs = WallSeconds([&] {
    for (int i = 0; i < rounds; ++i) {
      const LinkIndex li = links[static_cast<size_t>(i) * 7 % links.size()];
      fabric.topo().SetLinkUp(li, false);
      fabric.Run();
      fabric.topo().SetLinkUp(li, true);
      fabric.Run();
    }
  });
  const Network::PacketPoolStats pools = fabric.net().packet_pool_stats();
  r.copies = fabric.net().stats().delivered - delivered_before;
  r.ns_per_copy = secs * 1e9 / static_cast<double>(r.copies);
  r.descriptors_peak = pools.descriptors_peak;
  r.bodies_peak = pools.bodies_peak;
  r.left_live = pools.descriptors_live + pools.bodies_live;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::Banner("perf_core — event core + routing compute microbenchmarks",
                "n/a (engineering benchmark, not a paper figure)");
  bench::JsonReporter report;

  // --- 1. cancel-heavy event drain -----------------------------------------
  const uint64_t total_events = args.quick ? 150000 : 600000;
  CancelDrainResult drain;
  const uint64_t drain_allocs =
      HotAllocsDuring([&] { drain = RunCancelDrain(total_events); });
  std::printf("\ncancel-heavy drain (%lu ticks, window 512):\n",
              static_cast<unsigned long>(total_events));
  std::printf("  %12.0f events/s (slot pool: %lu slots)\n", drain.events_per_sec,
              static_cast<unsigned long>(drain.pool_slots));
  bench::JsonReporter::Params drain_params = {
      {"events", std::to_string(total_events)}, {"window", "512"}};
  report.Add("perf_core", "events_per_sec", drain.events_per_sec, "events/s",
             drain_params);
  report.Add("perf_core", "event_pool_slots", static_cast<double>(drain.pool_slots),
             "slots", drain_params);
  report.Add("perf_core", "hot_scope_allocs", static_cast<double>(drain_allocs),
             "allocs", {{"section", "cancel_drain"}});

  // --- 2. one-source/many-destination path graphs --------------------------
  CubeConfig cube_config;
  cube_config.dims = {8, 8, 8};
  cube_config.hosts_per_switch = 0;
  cube_config.switch_ports = 8;
  auto cube = MakeCube(cube_config);
  const Topology& topo = cube.value().topo;
  std::vector<uint32_t> dsts;
  for (uint32_t v = 1; v < topo.switch_count(); v += 2) {
    dsts.push_back(v);
  }
  const int repeats = args.quick ? 2 : 6;
  BatchResult batch;
  const uint64_t batch_allocs = HotAllocsDuring(
      [&] { batch = RunPathGraphBatch(topo, cube.value().At(0, 0, 0), dsts, repeats); });
  std::printf("\npath-graph batch (8-cube, %zu dsts x %d repeats):\n", dsts.size(),
              repeats);
  std::printf("  %12.0f graphs/s\n", batch.per_sec);
  if (batch.failures != 0) {
    std::fprintf(stderr, "path-graph batch: %zu graphs failed\n", batch.failures);
    return 1;
  }
  report.Add("perf_core", "path_graphs_per_sec", batch.per_sec, "graphs/s",
             {{"topology", "cube8"}, {"dsts", std::to_string(dsts.size())}});
  report.Add("perf_core", "hot_scope_allocs", static_cast<double>(batch_allocs),
             "allocs", {{"section", "path_graph_batch"}});

  // --- 3. bring-up wall-clock, 1k .. 16k hosts -----------------------------
  struct Scale {
    uint32_t leaves;
    uint32_t hosts_per_leaf;
  };
  std::vector<Scale> scales = {{32, 32}};  // ~1k hosts
  if (!args.quick) {
    scales.push_back({64, 64});    // ~4k hosts
    scales.push_back({128, 128});  // ~16k hosts
  }
  std::printf("\nbring-up wall-clock (probing discovery + bootstraps, leaf-spine):\n");
  auto report_bring_up = [&report](const BringUpResult& b) {
    std::printf("  %6zu hosts  %8.2f s wall (%zu bootstrapped)\n", b.hosts, b.secs,
                b.bootstrapped);
    report.Add("perf_core", "bring_up_wall", b.secs, "s",
               {{"hosts", std::to_string(b.hosts)},
                {"bootstrapped", std::to_string(b.bootstrapped)}});
  };
  uint64_t bring_up_allocs = 0;
  for (const Scale& sc : scales) {
    BringUpResult b;
    bring_up_allocs +=
        HotAllocsDuring([&] { b = RunBringUp(sc.leaves, sc.hosts_per_leaf); });
    if (!b.healthy) {
      return 1;
    }
    report_bring_up(b);
  }
  report.Add("perf_core", "hot_scope_allocs", static_cast<double>(bring_up_allocs),
             "allocs", {{"section", "bring_up_leaf_spine"}});

  // --- 4. host route computation ------------------------------------------
  const int route_repeats = args.quick ? 3 : 12;
  HostRoutesResult routes;
  // On a thread of its own, so the section starts from a cold thread-local Yen
  // scratch: growth an earlier section already paid for cannot hide here.
  const uint64_t route_allocs = HotAllocsDuring([&] {
    std::thread worker([&] { routes = RunHostRoutes(route_repeats); });
    worker.join();
  });
  std::printf("\nhost routes (fat-tree k=8 TopoCache, k=4, %zu edge-switch pairs x %d "
              "repeats):\n",
              routes.pairs, route_repeats);
  std::printf("  cold (one Yen run per pair)  %12.0f routes/s\n", routes.cold_per_sec);
  std::printf("  warm (memo hits)             %12.0f routes/s\n", routes.warm_per_sec);
  if (routes.failures != 0) {
    std::fprintf(stderr, "host routes: %zu ComputeRoutes calls failed\n", routes.failures);
    return 1;
  }
  report.Add("perf_core", "host_routes_per_sec", routes.cold_per_sec, "routes/s",
             {{"topology", "fattree8"}, {"k", "4"}, {"pass", "cold"}});
  report.Add("perf_core", "host_routes_per_sec", routes.warm_per_sec, "routes/s",
             {{"topology", "fattree8"}, {"k", "4"}, {"pass", "warm"}});
  report.Add("perf_core", "hot_scope_allocs", static_cast<double>(route_allocs),
             "allocs", {{"section", "host_routes"}});

  // --- 5. packet path ------------------------------------------------------
  const int path_rounds = args.quick ? 20 : 100;
  PacketPathResult path;
  const uint64_t path_allocs = HotAllocsDuring([&] { path = RunPacketPath(path_rounds); });
  std::printf("\npacket path (fat-tree k=8, warm routes, %d rounds x %lu pings, echoed):\n",
              path_rounds,
              static_cast<unsigned long>(path.pings / static_cast<uint64_t>(path_rounds)));
  std::printf("  %12.1f ns per switch hop (%lu hops)\n", path.ns_per_hop,
              static_cast<unsigned long>(path.hops));
  std::printf("  %12.0f events/s (%lu events)\n", path.events_per_sec,
              static_cast<unsigned long>(path.events));
  if (path.echoes != path.pings) {
    std::fprintf(stderr, "packet path: %lu of %lu pings echoed\n",
                 static_cast<unsigned long>(path.echoes),
                 static_cast<unsigned long>(path.pings));
    return 1;
  }
  const bench::JsonReporter::Params path_params = {{"topology", "fattree8"},
                                                   {"partners", "8"}};
  report.Add("perf_core", "packet_path_ns_per_hop", path.ns_per_hop, "ns", path_params);
  report.Add("perf_core", "packet_path_events_per_sec", path.events_per_sec, "events/s",
             path_params);
  report.Add("perf_core", "hot_scope_allocs", static_cast<double>(path_allocs), "allocs",
             {{"section", "packet_path"}});

  // --- 6. notification storm ----------------------------------------------
  const int storm_rounds = args.quick ? 2 : 8;
  StormResult storm;
  const uint64_t storm_allocs =
      HotAllocsDuring([&] { storm = RunNotificationStorm(storm_rounds); });
  std::printf("\nnotification storm (fat-tree k=8, %d aggregation-core link down/up rounds):\n",
              storm_rounds);
  std::printf("  %12.1f ns per delivered copy (%lu copies)\n", storm.ns_per_copy,
              static_cast<unsigned long>(storm.copies));
  std::printf("  %12zu descriptors, %zu bodies at peak\n", storm.descriptors_peak,
              storm.bodies_peak);
  if (storm.left_live != 0) {
    std::fprintf(stderr, "notification storm: %zu descriptors/bodies out at quiescence\n",
                 storm.left_live);
    return 1;
  }
  const bench::JsonReporter::Params storm_params = {
      {"topology", "fattree8"}, {"rounds", std::to_string(storm_rounds)}};
  report.Add("perf_core", "notification_storm_ns_per_copy", storm.ns_per_copy, "ns",
             storm_params);
  report.Add("perf_core", "notification_storm_descriptors_peak",
             static_cast<double>(storm.descriptors_peak), "descriptors", storm_params);
  report.Add("perf_core", "notification_storm_bodies_peak",
             static_cast<double>(storm.bodies_peak), "bodies", storm_params);
  report.Add("perf_core", "hot_scope_allocs", static_cast<double>(storm_allocs), "allocs",
             {{"section", "notification_storm"}});

  if (args.quick) {
    std::printf("\n(quick mode: reduced event count, repeats, and host sweep)\n");
  }
  std::printf("\nhot-scope allocations (contract checker): drain=%lu batch=%lu "
              "bring_up=%lu routes=%lu packet_path=%lu storm=%lu\n",
              static_cast<unsigned long>(drain_allocs),
              static_cast<unsigned long>(batch_allocs),
              static_cast<unsigned long>(bring_up_allocs),
              static_cast<unsigned long>(route_allocs),
              static_cast<unsigned long>(path_allocs),
              static_cast<unsigned long>(storm_allocs));
  dumbnet::contracts::PublishTelemetry();
  if (!report.WriteTo(args.json_path)) {
    return 1;
  }
  bench::WriteMetricsJson(args.metrics_path);
  const uint64_t audit_failures = audit::Counters().failures;
  if (audit_failures != 0) {
    std::fprintf(stderr, "%lu audit checks failed\n",
                 static_cast<unsigned long>(audit_failures));
    return 1;
  }
  return 0;
}
