// SimulatedFabric: one-stop assembly of a complete DumbNet deployment inside the
// discrete-event simulator — dumb switches on every topology switch, a host agent
// on every host, and (optionally) a controller service on a chosen host. This is
// the top-level entry point examples and benchmarks use. Every node's events
// run on the one simulator the fabric owns; the Run()/RunUntil()/Now() facade
// forwards to it.
#ifndef DUMBNET_SRC_CORE_FABRIC_H_
#define DUMBNET_SRC_CORE_FABRIC_H_

#include <memory>
#include <utility>
#include <vector>

#include "src/analysis/invariant_auditor.h"
#include "src/ctrl/controller.h"
#include "src/host/host_agent.h"
#include "src/net/network.h"
#include "src/sim/simulator.h"
#include "src/switch/dumb_switch.h"
#include "src/topo/topology.h"

namespace dumbnet {

class SimulatedFabric {
 public:
  // `shards` remains only so callers that pass 1 (fabricbench/fabric_bench.cc)
  // keep compiling; any other value throws std::invalid_argument. New code
  // leaves it out.
  explicit SimulatedFabric(Topology topo, HostAgentConfig agent_config = HostAgentConfig(),
                           DumbSwitchConfig switch_config = DumbSwitchConfig(),
                           NetworkConfig net_config = NetworkConfig(),
                           uint32_t shards = 1);

  // Installs a controller service on host `host_index`.
  ControllerService& AddController(uint32_t host_index,
                                   ControllerConfig config = ControllerConfig(),
                                   DiscoveryConfig discovery = DiscoveryConfig());

  // Convenience: AddController + Start (with discovery) + run the simulation
  // until it is idle. Returns false if bring-up never completed or any host
  // never acknowledged its bootstrap (ControllerService::unacked_hosts).
  bool BringUp(uint32_t controller_host, ControllerConfig config = ControllerConfig(),
               DiscoveryConfig discovery = DiscoveryConfig());

  // Like BringUp but adopts the ground-truth topology instead of probing — instant,
  // for experiments that are not about discovery.
  void BringUpAdopted(uint32_t controller_host, ControllerConfig config = ControllerConfig());

  // --- Simulation facade ------------------------------------------------------
  uint64_t Run() { return sim_->Run(); }
  uint64_t RunUntil(TimeNs deadline) { return sim_->RunUntil(deadline); }
  uint64_t RunSteps(uint64_t steps) { return sim_->RunSteps(steps); }
  TimeNs Now() const { return sim_->Now(); }
  uint64_t executed_events() const { return sim_->executed_events(); }

  // Audited mode: registers the whole invariant catalog (topology validity, every
  // host's TopoCache↔PathTable coherence, controller db vs ground truth when a
  // controller exists) and re-runs it every `every_events` simulator events.
  // Call after AddController/BringUp so the controller invariants are included.
  // Returns the auditor so tests can assert auditor.clean() afterwards.
  InvariantAuditor& EnableAuditing(uint64_t every_events = 256);
  InvariantAuditor* auditor() { return auditor_.get(); }

  Topology& topo() { return topo_; }
  Simulator& sim() { return *sim_; }
  Network& net() { return *net_; }
  HostAgent& agent(uint32_t h) { return *agents_[h]; }
  DumbSwitch& dumb_switch(uint32_t s) { return *switches_[s]; }
  ControllerService& controller() { return *controller_; }
  bool has_controller() const { return controller_ != nullptr; }
  size_t host_count() const { return agents_.size(); }
  size_t switch_count() const { return switches_.size(); }

 private:
  Topology topo_;
  // Declared before net_, so it is destroyed after every node: events still
  // pending at teardown hand their parked packets back to the network's pool,
  // which outlives the network until they do (PacketPool).
  std::unique_ptr<Simulator> sim_;
  std::unique_ptr<Network> net_;
  std::vector<std::unique_ptr<DumbSwitch>> switches_;
  std::vector<std::unique_ptr<HostAgent>> agents_;
  std::unique_ptr<ControllerService> controller_;
  std::unique_ptr<InvariantAuditor> auditor_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_CORE_FABRIC_H_
