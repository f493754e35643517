// Portable control-plane types exchanged between hosts and the controller. All are
// keyed by *discovered* identifiers (switch UIDs, host MACs) — never by simulator
// indices — because that is all a real DumbNet host could know.
#ifndef DUMBNET_SRC_ROUTING_WIRE_TYPES_H_
#define DUMBNET_SRC_ROUTING_WIRE_TYPES_H_

#include <cstdint>
#include <vector>

#include "src/topo/topology.h"

namespace dumbnet {

// A link between two discovered switches.
struct WireLink {
  uint64_t uid_a = 0;
  PortNum port_a = 0;
  uint64_t uid_b = 0;
  PortNum port_b = 0;

  bool operator==(const WireLink&) const = default;
};

// Where a host lives: its edge switch and port.
struct HostLocation {
  uint64_t mac = 0;
  uint64_t switch_uid = 0;
  PortNum port = 0;

  bool operator==(const HostLocation&) const = default;
};

// Portable path graph (Section 4.3): what a PathResponse carries. The host
// merges the links into its TopoCache and computes its own routes over them.
struct WirePathGraph {
  uint64_t src_uid = 0;
  uint64_t dst_uid = 0;
  std::vector<WireLink> links;  // induced subgraph links
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ROUTING_WIRE_TYPES_H_
