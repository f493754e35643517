// Physical topology model: switches with numbered ports, hosts with a single NIC,
// and point-to-point links. This is the ground truth the simulators execute against;
// the DumbNet controller builds its own *discovered* copy of it by probing.
//
// Port numbering: DumbNet reserves tag 0 for switch-ID queries and 0xFF for the
// end-of-path marker ø, so valid port numbers are 1..254 (Section 3.2/4.1 of the
// paper).
#ifndef DUMBNET_SRC_TOPO_TOPOLOGY_H_
#define DUMBNET_SRC_TOPO_TOPOLOGY_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/util/result.h"

namespace dumbnet {

using PortNum = uint8_t;

// Reserved tag values (not valid port numbers).
constexpr PortNum kIdQueryTag = 0x00;   // "reply with your switch ID"
constexpr PortNum kPathEndTag = 0xFF;   // ø: end-of-path marker
constexpr PortNum kMaxPorts = 254;

// Node identifier: switches and hosts live in separate index spaces.
struct NodeId {
  enum class Kind : uint8_t { kSwitch, kHost };

  Kind kind = Kind::kSwitch;
  uint32_t index = 0;

  static NodeId Switch(uint32_t i) { return NodeId{Kind::kSwitch, i}; }
  static NodeId Host(uint32_t i) { return NodeId{Kind::kHost, i}; }

  bool is_switch() const { return kind == Kind::kSwitch; }
  bool is_host() const { return kind == Kind::kHost; }

  bool operator==(const NodeId&) const = default;

  std::string ToString() const;
};

// One end of a link: a node and the port it uses. Hosts always use port 1.
struct Endpoint {
  NodeId node;
  PortNum port = 1;

  bool operator==(const Endpoint&) const = default;
  std::string ToString() const;
};

using LinkIndex = uint32_t;
constexpr LinkIndex kInvalidLink = UINT32_MAX;

struct Link {
  Endpoint a;
  Endpoint b;
  bool up = true;
  bool detached = false;  // tombstone left behind by DetachLink()
  double bandwidth_gbps = 10.0;
  int64_t propagation_ns = 500;  // ~100 m of fiber
  // Gray failure (up-but-lossy): parts-per-million of packets the link eats
  // while it reports "up". 0 = healthy. The endpoints see no port alarm — the
  // whole point of a gray failure is that nothing notices at the physical layer.
  uint32_t loss_ppm = 0;

  bool operator==(const Link&) const = default;

  // Returns the endpoint opposite to `from`.
  const Endpoint& Peer(const NodeId& from) const { return from == a.node ? b : a; }
  const Endpoint& Side(const NodeId& of) const { return of == a.node ? a : b; }
};

struct SwitchInfo {
  uint64_t uid = 0;    // burned-in unique ID, returned by tag-0 queries
  uint8_t num_ports = 0;
  // Port -> link index; kInvalidLink when nothing is plugged in. Index 0 unused.
  std::vector<LinkIndex> port_link;

  bool operator==(const SwitchInfo&) const = default;
};

struct HostInfo {
  uint64_t mac = 0;    // host identity (we use a synthetic 48-bit MAC)
  LinkIndex link = kInvalidLink;

  bool operator==(const HostInfo&) const = default;
};

// The physical network. Mutations (failing and restoring links) notify registered
// observers so simulated switches can raise port-state alarms.
class Topology {
 public:
  Topology() = default;

  // --- Construction -----------------------------------------------------------
  // Places this topology's switch UIDs and host MACs in a disjoint identifier
  // space (needed when several independent fabrics — e.g. the subnets of a
  // layer-3 deployment — coexist). Call before adding any node.
  void SetIdSpace(uint32_t id_space);

  uint32_t AddSwitch(uint8_t num_ports);
  uint32_t AddHost();

  // Raises switch `sw`'s port count to `num_ports`; never shrinks it. A
  // discovered mirror adds switches with no ports and grows each one to the
  // highest port it has seen a link on.
  void GrowPorts(uint32_t sw, PortNum num_ports);

  // Connects two endpoints with a fresh link. Fails if a port is out of range or
  // already wired.
  Result<LinkIndex> Connect(Endpoint a, Endpoint b, double bandwidth_gbps = 10.0,
                            int64_t propagation_ns = 500);

  // Convenience overloads.
  Result<LinkIndex> ConnectSwitches(uint32_t sw_a, PortNum port_a, uint32_t sw_b,
                                    PortNum port_b, double bandwidth_gbps = 10.0);
  Result<LinkIndex> AttachHost(uint32_t host, uint32_t sw, PortNum port,
                               double bandwidth_gbps = 10.0);

  // --- Queries ----------------------------------------------------------------
  size_t switch_count() const { return switches_.size(); }
  size_t host_count() const { return hosts_.size(); }
  size_t link_count() const { return links_.size(); }

  const SwitchInfo& switch_at(uint32_t i) const { return switches_[i]; }
  const HostInfo& host_at(uint32_t i) const { return hosts_[i]; }
  const Link& link_at(LinkIndex i) const { return links_[i]; }
  Link& mutable_link(LinkIndex i) { return links_[i]; }

  // Link plugged into switch `sw` port `port`, or kInvalidLink.
  LinkIndex LinkAtPort(uint32_t sw, PortNum port) const;

  // The endpoint on the far side of (sw, port); error if unwired.
  Result<Endpoint> PeerOf(uint32_t sw, PortNum port) const;

  // Switch a host is attached to, with the switch-side port.
  Result<Endpoint> HostUplink(uint32_t host) const;

  // Looks up a switch index by burned-in UID.
  Result<uint32_t> SwitchByUid(uint64_t uid) const;
  // Looks up a host index by MAC.
  Result<uint32_t> HostByMac(uint64_t mac) const;

  // Number of switch-to-switch links (excludes host attachments).
  size_t InterSwitchLinkCount() const;

  // --- Mutation ----------------------------------------------------------------
  // Fails/restores a link, notifying observers. Idempotent.
  void SetLinkUp(LinkIndex i, bool up);

  // Overrides a link's propagation delay (cable length).
  void SetLinkPropagation(LinkIndex i, int64_t propagation_ns) {
    links_[i].propagation_ns = propagation_ns;
  }

  // Sets a link's gray-failure loss rate (parts per million). No observer
  // notification: gray failures are silent — switches keep forwarding into the
  // lossy link and hosts only notice through end-to-end symptoms.
  void SetLinkLoss(LinkIndex i, uint32_t loss_ppm) { links_[i].loss_ppm = loss_ppm; }

  // Unplugs a link permanently: both ports become free for new connections and the
  // link entry is tombstoned (indices stay stable). Used by discovered-topology
  // mirrors when a port is re-wired. No observer notification (not a failure).
  void DetachLink(LinkIndex i);

  using LinkObserver = std::function<void(LinkIndex, bool up)>;
  void AddLinkObserver(LinkObserver observer) { observers_.push_back(std::move(observer)); }

  // --- Validation ---------------------------------------------------------------
  // Checks structural invariants: port maps consistent with links, no self-links,
  // every host attached. Returns the first violation found.
  Status Validate() const;

  // True if every pair of switches with any link up is connected through up links.
  bool IsConnected() const;

  // True if both hold the same switches, hosts and links, each with the same
  // state and properties. Observers are not content.
  bool SameContent(const Topology& other) const {
    return id_space_ == other.id_space_ && switches_ == other.switches_ &&
           hosts_ == other.hosts_ && links_ == other.links_;
  }

 private:
  uint64_t switch_uid_base() const;
  uint64_t host_mac_base() const;

  uint32_t id_space_ = 0;
  std::vector<SwitchInfo> switches_;
  std::vector<HostInfo> hosts_;
  std::vector<Link> links_;
  std::vector<LinkObserver> observers_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_TOPO_TOPOLOGY_H_
