// Ablation (Sections 4.3, 7.3): what does the path-graph cache actually buy?
//
// The paper's claim: caching a path *graph* (k equal-cost paths + local detours +
// a backup path) lets hosts fail over locally and "help[s] avoid overloading the
// controller during a link failure". We ablate the cache configuration and measure
// (i) the data-plane recovery time of a flow whose uplink dies and (ii) how many
// path queries hit the controller afterwards.
//
// Configurations sweep the cache from the paper's full path graph down to a plain
// single-route cache (no detour subgraph, no backup): the poorer the cache, the
// more the host must lean on the controller after a failure. A host keeps no
// separate backup route: the backup's links land in its TopoCache, which
// recomputes a destination once every cached route to it has died. With
// detours on, the controller ships the induced subgraph, which already holds
// the backup's vertices, so `send_backup` only matters without detours.
//
// Exits 1 when the printed expectation fails: a row that caches >= 2 routes or
// holds the backup's links must recover without asking the controller, and the
// primary-only row must ask.
#include <cstdio>
#include <memory>

#include "bench/bench_util.h"
#include "src/core/fabric.h"
#include "src/topo/generators.h"
#include "src/transport/reliable_flow.h"

using namespace dumbnet;

namespace {

struct Outcome {
  double recovery_ms = -1;
  uint64_t path_requests = 0;  // issued by the measured host after the cut
  bool finished = false;
};

Outcome RunConfig(uint32_t k_paths, uint32_t epsilon, bool send_detours, bool send_backup) {
  LeafSpineConfig ls_config;
  ls_config.num_spine = 2;
  ls_config.num_leaf = 5;
  ls_config.hosts_per_leaf = 5;
  ls_config.switch_ports = 64;
  ls_config.uplink_gbps = 0.5;
  ls_config.host_gbps = 0.5;
  auto ls = MakeLeafSpine(ls_config);
  std::vector<uint32_t> leaves = ls.value().leaves;

  HostAgentConfig agent_config;
  agent_config.k_paths = k_paths;
  ControllerConfig controller_config;
  controller_config.path_graph.epsilon = epsilon;
  controller_config.send_detours = send_detours;
  controller_config.send_backup = send_backup;

  SimulatedFabric fabric(std::move(ls.value().topo), agent_config);
  fabric.AddController(24, controller_config);
  fabric.controller().AdoptTopology(fabric.topo());
  fabric.Run();

  DumbNetChannel src_channel(&fabric.agent(0));
  DumbNetChannel dst_channel(&fabric.agent(6));
  ReliableFlowReceiver receiver(&dst_channel, 1);
  FlowConfig flow;
  flow.total_bytes = 0;
  flow.rto = Ms(25);
  ReliableFlowSender sender(&src_channel, 1, fabric.agent(6).mac(), flow);
  sender.Start();
  fabric.RunUntil(fabric.Now() + Ms(200));

  // Cut the uplink the flow is bound to.
  const PathTableEntry* entry = fabric.agent(0).path_table().Find(fabric.agent(6).mac());
  PortNum uplink = 1;
  if (entry != nullptr && !entry->paths.empty()) {
    auto it = entry->flow_binding.find(1);
    uplink = it != entry->flow_binding.end() && it->second < entry->paths.size()
                 ? entry->paths[it->second].tags.front()
                 : entry->paths.front().tags.front();
  }
  uint64_t requests_before = fabric.agent(0).stats().path_requests;
  uint64_t bytes_at_cut = sender.progress().bytes_acked;
  TimeNs cut_at = fabric.Now();
  fabric.topo().SetLinkUp(fabric.topo().LinkAtPort(leaves[0], uplink), false);

  // Recovery = first time bytes flow again after the cut (sampled at 1 ms).
  Outcome outcome;
  std::function<void()> probe = [&] {
    if (outcome.finished) {
      return;
    }
    if (sender.progress().bytes_acked > bytes_at_cut + 200000) {
      outcome.recovery_ms = ToMs(fabric.Now() - cut_at);
      outcome.finished = true;
      return;
    }
    fabric.sim().ScheduleAfter(Ms(1), probe);
  };
  fabric.sim().ScheduleAfter(Ms(1), probe);
  fabric.RunUntil(fabric.Now() + Sec(3));
  sender.Stop();
  fabric.RunUntil(fabric.Now() + Sec(1));

  outcome.path_requests = fabric.agent(0).stats().path_requests - requests_before;
  return outcome;
}

}  // namespace

int main() {
  bench::Banner("Ablation — path-graph caching vs failover resilience",
                "Section 4.3/7.3: richer caches recover locally and spare the "
                "controller");
  struct Row {
    const char* name;
    uint32_t k;
    uint32_t epsilon;
    bool detours;
    bool send_backup;
    // Caches >= 2 routes or holds the backup's links, so the host should
    // recover without the controller; false only for the plain route cache.
    bool local;
  };
  const Row rows[] = {
      {"full path graph (k=4+backup)", 4, 2, true, true, true},
      {"thin graph (epsilon=0)", 4, 0, true, true, true},
      {"backup only (no detours)", 4, 2, false, true, true},
      {"k=1 + backup links (no detours)", 1, 2, false, true, true},
      {"primary only (plain route cache)", 1, 2, false, false, false},
  };
  std::printf("%-34s %14s %20s\n", "cache configuration", "recovery (ms)",
              "controller queries");
  int failures = 0;
  for (const Row& row : rows) {
    Outcome outcome = RunConfig(row.k, row.epsilon, row.detours, row.send_backup);
    std::printf("%-34s %14.0f %20lu\n", row.name, outcome.recovery_ms,
                static_cast<unsigned long>(outcome.path_requests));
    if (row.local && (!outcome.finished || outcome.path_requests != 0)) {
      std::fprintf(stderr, "FAIL: %s: expected local recovery with no controller query\n",
                   row.name);
      ++failures;
    } else if (!row.local && outcome.path_requests == 0) {
      std::fprintf(stderr, "FAIL: %s: expected a controller query\n", row.name);
      ++failures;
    }
  }
  std::printf("\nexpectation: every config with >= 2 cached routes or the backup's links\n"
              "recovers in tens of ms without controller involvement; the single-path\n"
              "cache must go back to the controller, adding a query (and RTTs) to the\n"
              "recovery path.\n");
  return failures == 0 ? 0 : 1;
}
