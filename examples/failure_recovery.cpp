// Failure recovery demo (paper Section 4.2): a reliable flow runs across the
// testbed while a spine-leaf link is cut. The timeline shows the two-stage failure
// handling — switch hardware broadcast, host flooding, local failover to a cached
// path, and the controller's asynchronous topology patch.
//
// The run can also export its telemetry instrumentation:
//
//   $ ./failure_recovery --trace run.fr --metrics-json metrics.json
//   $ dumbnet-trace run.fr --chrome trace.json     # open via chrome://tracing
//
// For static verification, the post-failure fabric state can be exported and
// replayed through dumbnet-check, which checks the controller's path graphs
// (links plus Algorithm 1's primary and backup) against the snapshot:
//
//   $ ./failure_recovery --dump-topo fabric.topo --dump-pathgraphs graphs.pg
//   $ dumbnet-check fabric.topo graphs.pg
#include <cstdio>
#include <cstring>

#include "src/analysis/fabric_check.h"
#include "src/core/fabric.h"
#include "src/topo/serialize.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/topo/generators.h"
#include "src/transport/reliable_flow.h"

using namespace dumbnet;

int main(int argc, char** argv) {
  std::string trace_path;
  std::string metrics_path;
  std::string topo_path;
  std::string pathgraphs_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0 && i + 1 < argc) {
      trace_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-json") == 0 && i + 1 < argc) {
      metrics_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dump-topo") == 0 && i + 1 < argc) {
      topo_path = argv[++i];
    } else if (std::strcmp(argv[i], "--dump-pathgraphs") == 0 && i + 1 < argc) {
      pathgraphs_path = argv[++i];
    } else {
      std::fprintf(stderr,
                   "usage: %s [--trace <path>] [--metrics-json <path>]\n"
                   "          [--dump-topo <path>] [--dump-pathgraphs <path>]\n",
                   argv[0]);
      return 2;
    }
  }
  telemetry::FlightRecorder::InstallLogCapture();

  auto testbed = MakePaperTestbed();
  if (!testbed.ok()) {
    return 1;
  }
  std::vector<uint32_t> leaves = testbed.value().leaves;
  SimulatedFabric fabric(std::move(testbed.value().topo));
  fabric.BringUpAdopted(/*controller_host=*/25);
  const TimeNs epoch = fabric.Now();  // bring-up consumed some virtual time
  auto rel_ms = [&] { return ToMs(fabric.Now() - epoch); };

  // A 16 MiB transfer from a host on leaf 0 to a host on leaf 2.
  DumbNetChannel src_channel(&fabric.agent(0));
  DumbNetChannel dst_channel(&fabric.agent(12));
  ReliableFlowReceiver receiver(&dst_channel, /*flow_id=*/1);
  FlowConfig flow;
  flow.total_bytes = 16u << 20;
  ReliableFlowSender sender(&src_channel, 1, fabric.agent(12).mac(), flow);

  // Instrument the receiving host's view of the failure.
  TimeNs cut_at = 0;
  fabric.agent(0).SetLinkEventHook([&](const LinkEventPayload& ev, bool from_fabric) {
    std::printf("[%8.3f ms] host 0 heard link event (switch %lx port %u %s) via %s\n",
                rel_ms(), static_cast<unsigned long>(ev.switch_uid),
                ev.port, ev.up ? "up" : "DOWN",
                from_fabric ? "fabric broadcast" : "host flood");
  });
  fabric.agent(0).SetPatchHook([&](const TopologyPatchPayload& patch) {
    std::printf("[%8.3f ms] host 0 received topology patch #%lu (%zu removed)\n",
                rel_ms(), static_cast<unsigned long>(patch.patch_seq),
                patch.removed != nullptr ? patch.removed->size() : 0);
  });

  bool done = false;
  sender.Start([&] {
    done = true;
    std::printf("[%8.3f ms] transfer complete (%lu retransmissions, %lu timeouts)\n",
                rel_ms(),
                static_cast<unsigned long>(sender.progress().retransmissions),
                static_cast<unsigned long>(sender.progress().timeouts));
  });

  // Progress sampler: print throughput every 5 ms around the failure.
  uint64_t last_bytes = 0;
  std::function<void()> sample = [&] {
    uint64_t bytes = sender.progress().bytes_acked;
    double mbps = static_cast<double>(bytes - last_bytes) * 8.0 / 5e3;  // per 5 ms
    std::printf("[%8.3f ms] goodput %.0f Mbps (%.1f%% done)\n", rel_ms(),
                mbps, 100.0 * static_cast<double>(bytes) /
                          static_cast<double>(flow.total_bytes));
    last_bytes = bytes;
    if (!done) {
      fabric.sim().ScheduleAfter(Ms(5), sample);
    }
  };
  fabric.sim().ScheduleAfter(Ms(5), sample);

  // Cut the leaf0 uplink the flow is bound to at t = 12 ms (its first tag is
  // that uplink's port on leaf 0).
  fabric.sim().ScheduleAfter(Ms(12), [&] {
    cut_at = fabric.Now();
    PortNum uplink = 1;
    if (const PathTableEntry* entry = fabric.agent(0).path_table().Find(fabric.agent(12).mac())) {
      auto bound = entry->flow_binding.find(1);
      if (bound != entry->flow_binding.end() && bound->second < entry->paths.size()) {
        uplink = entry->paths[bound->second].tags.front();
      }
    }
    std::printf("[%8.3f ms] *** cutting the flow's leaf0 uplink (port %u) ***\n", rel_ms(),
                static_cast<unsigned>(uplink));
    fabric.topo().SetLinkUp(fabric.topo().LinkAtPort(leaves[0], uplink), false);
  });

  fabric.Run();
  std::printf("path table stats on host 0: %lu rebinds, %lu reroutes from the topo cache\n",
              static_cast<unsigned long>(fabric.agent(0).path_table().stats().rebinds),
              static_cast<unsigned long>(fabric.agent(0).stats().reroutes));

  if (!trace_path.empty()) {
    if (telemetry::FlightRecorder::Global().SaveTo(trace_path)) {
      std::printf("wrote flight-recorder dump to %s\n", trace_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", trace_path.c_str());
      return 2;
    }
  }
  if (!metrics_path.empty()) {
    if (telemetry::MetricsRegistry::Global().WriteJsonFile(metrics_path)) {
      std::printf("wrote telemetry metrics to %s\n", metrics_path.c_str());
    } else {
      std::fprintf(stderr, "cannot write %s\n", metrics_path.c_str());
      return 2;
    }
  }
  // Export the post-failure fabric for offline verification: the topology as the
  // controller sees it, and freshly recomputed path graphs from host 0 to every
  // other host (computed against the same snapshot, so a clean dumbnet-check
  // run is the expected outcome).
  if (!topo_path.empty()) {
    if (Status s = SaveTopology(fabric.topo(), topo_path); !s.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", topo_path.c_str(),
                   s.error().ToString().c_str());
      return 2;
    }
    std::printf("wrote topology snapshot to %s\n", topo_path.c_str());
  }
  if (!pathgraphs_path.empty()) {
    std::vector<uint64_t> dst_macs;
    for (uint32_t h = 1; h < fabric.host_count(); ++h) {
      dst_macs.push_back(fabric.agent(h).mac());
    }
    auto graphs = fabric.controller().PrecomputePathGraphs(fabric.agent(0).mac(),
                                                           dst_macs);
    if (!graphs.ok()) {
      std::fprintf(stderr, "path-graph precompute failed: %s\n",
                   graphs.error().ToString().c_str());
      return 2;
    }
    if (Status s = SaveWirePathGraphs(graphs.value(), pathgraphs_path); !s.ok()) {
      std::fprintf(stderr, "cannot write %s: %s\n", pathgraphs_path.c_str(),
                   s.error().ToString().c_str());
      return 2;
    }
    std::printf("wrote %zu path graphs to %s\n", graphs.value().size(),
                pathgraphs_path.c_str());
  }
  return done ? 0 : 1;
}
