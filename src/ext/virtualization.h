// Network virtualization (paper Section 6.1): tenants receive filtered topology
// views, and the path verifier enforces that application-generated routes stay
// inside the tenant's slice — "we need to verify the paths to prevent malicious
// applications from violating the separation".
#ifndef DUMBNET_SRC_EXT_VIRTUALIZATION_H_
#define DUMBNET_SRC_EXT_VIRTUALIZATION_H_

#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/host/path_verifier.h"
#include "src/routing/topo_db.h"
#include "src/routing/wire_types.h"
#include "src/util/result.h"

namespace dumbnet {

// A tenant's slice: which switches and hosts it may see and use.
class VirtualNetwork {
 public:
  VirtualNetwork(std::unordered_set<uint64_t> switch_uids,
                 std::unordered_set<uint64_t> host_macs)
      : switches_(std::move(switch_uids)), hosts_(std::move(host_macs)) {}

  bool SwitchAllowed(uint64_t uid) const { return switches_.count(uid) > 0; }
  bool HostAllowed(uint64_t mac) const { return hosts_.count(mac) > 0; }

  // A verifier policy enforcing the slice (plug into PathVerifier).
  VerifyPolicy MakePolicy() const;

  // The tenant-visible portion of a topology: only allowed switches, links whose
  // both ends are allowed, and allowed hosts (the TopoCache interface that "may
  // offer different topologies based on permission").
  TopoDb FilterView(const TopoDb& full) const;

  // Drops links touching disallowed switches from a path graph before it is
  // handed to a tenant application; fails when what is left no longer connects
  // src to dst (or strands a link away from src).
  Result<WirePathGraph> FilterPathGraph(const WirePathGraph& graph) const;

 private:
  std::unordered_set<uint64_t> switches_;
  std::unordered_set<uint64_t> hosts_;
};

// Registry of tenants, kept next to the controller.
class VirtualizationService {
 public:
  void RegisterTenant(uint32_t tenant_id, VirtualNetwork network);
  Result<const VirtualNetwork*> Tenant(uint32_t tenant_id) const;

  // Verifies a tenant-supplied path against both the slice and the topology.
  Status VerifyTenantPath(uint32_t tenant_id, const TopoDb& db,
                          const std::vector<uint64_t>& uid_path) const;

 private:
  std::unordered_map<uint32_t, VirtualNetwork> tenants_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_EXT_VIRTUALIZATION_H_
