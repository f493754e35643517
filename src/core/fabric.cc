#include "src/core/fabric.h"

#include <stdexcept>
#include <string>

#include "src/analysis/invariants.h"

namespace dumbnet {

SimulatedFabric::SimulatedFabric(Topology topo, HostAgentConfig agent_config,
                                 DumbSwitchConfig switch_config, NetworkConfig net_config,
                                 uint32_t shards)
    : topo_(std::move(topo)) {
  if (shards != 1) {
    throw std::invalid_argument("SimulatedFabric: shards must be 1 (got " +
                                std::to_string(shards) + "); the simulator is not sharded");
  }
  sim_ = std::make_unique<Simulator>();
  net_ = std::make_unique<Network>(sim_.get(), &topo_, net_config);
  for (uint32_t s = 0; s < topo_.switch_count(); ++s) {
    switches_.push_back(std::make_unique<DumbSwitch>(net_.get(), s, switch_config));
  }
  for (uint32_t h = 0; h < topo_.host_count(); ++h) {
    agents_.push_back(std::make_unique<HostAgent>(net_.get(), h, agent_config));
  }
}

ControllerService& SimulatedFabric::AddController(uint32_t host_index,
                                                  ControllerConfig config,
                                                  DiscoveryConfig discovery) {
  controller_ = std::make_unique<ControllerService>(agents_[host_index].get(), config,
                                                    discovery);
  return *controller_;
}

bool SimulatedFabric::BringUp(uint32_t controller_host, ControllerConfig config,
                              DiscoveryConfig discovery) {
  AddController(controller_host, config, discovery);
  bool ready = false;
  controller_->Start([&ready] { ready = true; });
  Run();
  return ready && controller_->unacked_hosts().empty();
}

InvariantAuditor& SimulatedFabric::EnableAuditing(uint64_t every_events) {
  auditor_ = std::make_unique<InvariantAuditor>();
  RegisterTopologyInvariants(*auditor_, &topo_);
  for (uint32_t h = 0; h < agents_.size(); ++h) {
    RegisterCacheInvariants(*auditor_, &agents_[h]->topo_cache(),
                            &agents_[h]->path_table(), h);
  }
  if (controller_ != nullptr) {
    RegisterTopoDbInvariants(*auditor_, &controller_->db(), &topo_);
  }
  auditor_->AttachTo(sim_.get(), every_events);
  return *auditor_;
}

void SimulatedFabric::BringUpAdopted(uint32_t controller_host, ControllerConfig config) {
  AddController(controller_host, config);
  controller_->AdoptTopology(topo_);
  Run();
}

}  // namespace dumbnet
