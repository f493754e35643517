// Packet model.
//
// Wire format (paper Figure 3): an Ethernet header with EtherType 0x9800, followed
// by the routing tag stack (one byte per hop, terminated by ø = 0xFF), followed by
// the original payload. We keep the tag stack as an explicit vector *including* the
// trailing ø, and model payloads as typed structs in a variant instead of raw bytes:
// the simulator charges wire size from `WireSize()`, while handlers get structured
// data without a serialization layer.
#ifndef DUMBNET_SRC_NET_PACKET_H_
#define DUMBNET_SRC_NET_PACKET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <variant>
#include <vector>

#include "src/routing/host_directory.h"
#include "src/routing/tags.h"
#include "src/routing/wire_types.h"
#include "src/sim/time.h"
#include "src/telemetry/provenance.h"
#include "src/topo/topology.h"

namespace dumbnet {

constexpr uint16_t kEtherTypeIpv4 = 0x0800;
constexpr uint16_t kEtherTypeDumbNet = 0x9800;
constexpr uint16_t kEtherTypeBpdu = 0x0802;  // our stand-in for 802.1D BPDU frames

constexpr uint64_t kBroadcastMac = 0xFFFF'FFFF'FFFFULL;

constexpr int64_t kEthernetHeaderBytes = 14;
constexpr int64_t kDefaultMtu = 1500;

struct EthernetHeader {
  uint64_t dst_mac = 0;
  uint64_t src_mac = 0;
  uint16_t ether_type = kEtherTypeIpv4;
};

// ---------------------------------------------------------------------------------
// Payload types

// Application/transport data; `bytes` is the nominal size charged on the wire.
// `inner_dst_mac` is the end-to-end destination for traffic relayed through a
// layer-3 router (Section 6.3); 0 for ordinary intra-subnet traffic.
struct DataPayload {
  uint64_t flow_id = 0;
  uint64_t seq = 0;
  uint64_t ack = 0;
  bool is_ack = false;
  int64_t bytes = kDefaultMtu;
  uint64_t inner_dst_mac = 0;
  // Congestion Experienced mark, set by switches when their egress queue is deep
  // (the paper's future-work ECN support; needs no switch state).
  bool ecn = false;
};

// Topology-discovery probe message (Section 4.1). Carries its origin and the full
// forward tag path so receivers can recognize bounces and derive reply paths.
struct ProbePayload {
  uint64_t probe_id = 0;
  uint64_t origin_mac = 0;
  TagList forward_path;  // as originally sent, ø included
};

// Reply to a probe that reached a host: "I am <mac>, I heard probe <probe_id>".
// `reply_path` echoes the tags the host replied along (the probe's leftover tags);
// the prober compares it against the expected return path to reject probes that
// wandered through extra switches before reaching a host.
struct ProbeReplyPayload {
  uint64_t probe_id = 0;
  uint64_t responder_mac = 0;
  TagList reply_path;
  // "...and possibly the controller if the new host knows" (Section 3.3): a
  // bootstrapped responder advertises its controller here; 0 = unknown.
  uint64_t controller_mac = 0;
};

// Reply a switch generates for a tag-0 ID query.
struct IdReplyPayload {
  uint64_t probe_id = 0;
  uint64_t switch_uid = 0;
};

// Stage-1 failure notification, broadcast by switches with a hop limit
// (Section 4.2). Not tag-routed: switches flood it out every up port.
struct PortEventPayload {
  uint64_t switch_uid = 0;
  PortNum port = 0;
  bool up = false;
  uint8_t hops_left = 5;
  uint64_t event_seq = 0;  // per-switch sequence for host-side dedup
  TimeNs origin_time = 0;
};

// Host -> controller: "give me a path graph to dst". `attempt` is the host's
// retry counter for this destination; the controller folds it into the seed of
// the per-query randomized path choice, so a response's content is a pure
// function of (requester, dst, attempt) and never of the order concurrent
// queries happened to reach the controller's CPU queue.
struct PathRequestPayload {
  uint64_t requester_mac = 0;
  uint64_t dst_mac = 0;
  uint64_t attempt = 0;
};

// Controller -> host: path graph plus the destination's attach point.
struct PathResponsePayload {
  uint64_t dst_mac = 0;
  HostLocation dst_location;
  std::shared_ptr<const WirePathGraph> graph;
};

// Controller -> host bootstrap: your location, how to reach me, who your flood
// peers are, and where every host lives.
struct BootstrapInfo {
  HostLocation self;
  uint64_t controller_mac = 0;
  HostLocation controller_location;
  TagList path_to_controller;  // ø included
  std::shared_ptr<const HostDirectory> directory;
};

// The bootstrap travels behind one shared pointer (like PathResponsePayload's
// graph), so it does not set the size of every packet's payload variant.
// Null reads as a default BootstrapInfo.
struct BootstrapPayload {
  std::shared_ptr<const BootstrapInfo> info;
};

// Host-to-host flooded link event (stage 1, host side).
struct LinkEventPayload {
  uint64_t event_id = 0;  // (switch_uid, port, seq) hashed for dedup
  uint64_t switch_uid = 0;
  PortNum port = 0;
  bool up = false;
  TimeNs origin_time = 0;
};

// Controller -> all hosts: authoritative topology patch (stage 2).
struct TopologyPatchPayload {
  uint64_t patch_seq = 0;
  std::shared_ptr<const std::vector<WireLink>> removed;
  std::shared_ptr<const std::vector<WireLink>> added;
  TimeNs origin_time = 0;
};

// Spanning-tree BPDU for the baseline Ethernet fabric.
struct BpduPayload {
  uint64_t root_id = 0;
  uint32_t cost = 0;
  uint64_t sender_id = 0;
  PortNum sender_port = 0;
  bool topology_change = false;
};

using Payload =
    std::variant<DataPayload, ProbePayload, ProbeReplyPayload, IdReplyPayload,
                 PortEventPayload, PathRequestPayload, PathResponsePayload,
                 BootstrapPayload, LinkEventPayload, TopologyPatchPayload, BpduPayload>;

// ---------------------------------------------------------------------------------

struct Packet {
  EthernetHeader eth;
  // DumbNet tag stack, ø (kPathEndTag) included as the last element. Empty for
  // plain Ethernet frames (baseline fabric, pre-encap host traffic).
  TagList tags;
  Payload payload = DataPayload{};
  TimeNs sent_time = 0;  // stamped by the first transmitter, for latency stats
  // Fabric-local packet identity, stamped by the network on the packet's first
  // transmit from a per-origin counter (hosts and switches each own a stream).
  // Gray-failure drops are a pure hash of (gray_seed, link, direction, pkt_id),
  // so a packet's fate on a lossy link is a function of the packet itself —
  // never of how concurrent transmits interleaved. 0 = not yet stamped. Not
  // charged to WireSize() (a real NIC would fold this into an existing header
  // field such as IP id).
  uint64_t pkt_id = 0;
  // In-band path provenance (telemetry): the sender stamps the promised switch
  // UIDs, each switch appends the hop it actually took, the receiver compares.
  // One null pointer unless telemetry armed it; deliberately NOT charged to
  // WireSize() so paper-figure byte counts are unaffected — see provenance.h.
  telemetry::PathProvenance provenance;

  // Nominal bytes this packet occupies on the wire.
  int64_t WireSize() const;

  // tags = path_tags + ø, sized once.
  void SetPath(const TagList& path_tags);

  template <typename T>
  const T* As() const {
    return std::get_if<T>(&payload);
  }

  std::string Describe() const;
};

// Convenience constructors ----------------------------------------------------------

// A DumbNet packet: tags = path tags + ø appended here.
Packet MakeDumbNetPacket(uint64_t src_mac, uint64_t dst_mac, const TagList& path_tags,
                         Payload payload);

// A plain Ethernet frame (baseline network).
Packet MakeEthernetPacket(uint64_t src_mac, uint64_t dst_mac, uint16_t ether_type,
                          Payload payload);

}  // namespace dumbnet

#endif  // DUMBNET_SRC_NET_PACKET_H_
