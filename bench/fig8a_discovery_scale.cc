// Figure 8(a): topology discovery time vs. network size, for fat-tree and cube
// topologies with the controller in different positions.
//
// Paper result: discovery of a 500-switch network of 64-port switches completes
// within ~70 s; time grows roughly linearly with switch count (the controller's
// PM processing rate is the bottleneck), and topology shape / controller placement
// matter little.
//
// Method: the real DiscoveryService probes a simulated fabric through real dumb
// switches; every switch is probed on all 64 possible ports (as in the paper's
// emulation), and the controller CPU is a single server with a per-PM cost.
#include <cstdio>

#include "bench/bench_util.h"
#include "src/core/fabric.h"
#include "src/topo/generators.h"

using namespace dumbnet;

namespace {

struct Point {
  const char* series;
  size_t switches;
  double seconds;
  uint64_t pms;
};

// Builds the fabric, runs discovery from `controller_host`, returns elapsed
// simulated seconds. Switches advertise 64 ports; probing covers all of them.
Point RunDiscovery(const char* series, Topology topo, uint32_t controller_host,
                   uint8_t max_ports) {
  SimulatedFabric fabric(std::move(topo));
  DiscoveryConfig config;
  config.max_ports = max_ports;
  DiscoveryService discovery(&fabric.agent(controller_host), config);
  discovery.Start(nullptr);
  fabric.Run();
  Point p;
  p.series = series;
  p.switches = fabric.switch_count();
  p.seconds = ToSec(discovery.stats().finished_at - discovery.stats().started_at);
  p.pms = discovery.stats().probes_sent;
  if (discovery.db().switch_count() != fabric.switch_count()) {
    std::printf("WARNING: %s with %zu switches discovered only %zu!\n", series,
                fabric.switch_count(), discovery.db().switch_count());
  }
  return p;
}

}  // namespace

int main(int argc, char** argv) {
  bench::BenchArgs args = bench::ParseBenchArgs(argc, argv);
  bench::Banner("Figure 8(a) — discovery time vs network size (64-port switches)",
                "~linear in #switches; <= 70 s at 500 switches; topology and "
                "controller position secondary");
  const bool quick = args.quick;
  const uint8_t ports = quick ? 16 : 64;
  std::vector<Point> points;

  // Fat-tree series (controller on a leaf host, as in the paper).
  for (uint32_t k : std::vector<uint32_t>{4, 8, 12, 16, 20}) {
    if (quick && k > 8) {
      break;
    }
    FatTreeConfig config;
    config.k = k;
    config.attach_hosts = false;
    auto ft = MakeFatTree(config);
    // One host on edge switch 0 acts as the controller.
    uint32_t host = ft.value().topo.AddHost();
    (void)ft.value().topo.AttachHost(host, ft.value().edge[0], static_cast<PortNum>(1));
    points.push_back(RunDiscovery("fat-tree", std::move(ft.value().topo), host, ports));
  }

  // Cube series: controller at a corner and at the center.
  for (uint32_t n : std::vector<uint32_t>{2, 3, 4, 6, 8}) {
    if (quick && n > 4) {
      break;
    }
    for (bool center : {false, true}) {
      CubeConfig config;
      config.dims = {n, n, n};
      config.hosts_per_switch = 0;
      config.switch_ports = ports;
      auto cube = MakeCube(config);
      uint32_t attach = center ? cube.value().At(n / 2, n / 2, n / 2) : cube.value().At(0, 0, 0);
      uint32_t host = cube.value().topo.AddHost();
      (void)cube.value().topo.AttachHost(host, attach, static_cast<PortNum>(7));
      points.push_back(RunDiscovery(center ? "cube-center" : "cube-corner",
                                    std::move(cube.value().topo), host, ports));
    }
  }

  std::printf("%-12s %10s %14s %14s %16s\n", "series", "#switches", "time (s)",
              "probe msgs", "us per probe");
  for (const Point& p : points) {
    std::printf("%-12s %10zu %14.2f %14lu %16.1f\n", p.series, p.switches, p.seconds,
                static_cast<unsigned long>(p.pms), 1e6 * p.seconds / static_cast<double>(p.pms));
  }
  std::printf("\nshape check: time/switch should be roughly constant per series "
              "(linear growth, as in the paper).\n");
  if (quick) {
    std::printf("(DUMBNET_QUICK=1: reduced sweep, 16-port probing)\n");
  }

  bench::JsonReporter report;
  for (const Point& p : points) {
    bench::JsonReporter::Params params = {{"series", p.series},
                                          {"switches", std::to_string(p.switches)}};
    report.Add("fig8a", "discovery_time", p.seconds, "s", params);
    report.Add("fig8a", "probe_messages", static_cast<double>(p.pms), "msgs", params);
  }
  if (!report.WriteTo(args.json_path)) {
    return 1;
  }
  return 0;
}
