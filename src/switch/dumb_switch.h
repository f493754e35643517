// The DumbNet switch (paper Sections 3, 4.2, 5.3). It keeps NO forwarding state and
// needs NO configuration. The complete behaviour:
//
//   1. Tag forwarding: pop the first routing tag, emit the packet out that port.
//   2. ID query: a first tag of 0 means "reply with your burned-in unique ID along
//      the remaining tags".
//   3. Port monitoring: on a physical port state change, broadcast a hop-limited
//      port-up/down notification out every port, suppressing duplicate alarms to at
//      most one per second per port.
//
// Anything else (unknown EtherType, ø at a switch, bad port) is dropped.
#ifndef DUMBNET_SRC_SWITCH_DUMB_SWITCH_H_
#define DUMBNET_SRC_SWITCH_DUMB_SWITCH_H_

#include <cstdint>
#include <vector>

#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"

namespace dumbnet {

struct DumbSwitchConfig {
  // ECN support (paper Section 8 future work: "these mechanisms either require no
  // state, or only soft state"). Marking reads the physical egress queue depth.
  bool enable_ecn = true;
  int64_t ecn_threshold_bytes = 48 * 1024;
  // Cut-through tag lookup plus demux; the FPGA prototype measures ~33 us per hop
  // at 1 GbE, commodity ASICs are ~0.5 us. This is pure pipeline latency.
  TimeNs forwarding_delay = 500;
  // Hop limit for port-state broadcast (paper: "a max of 5 hops is often enough").
  uint8_t notify_hops = 5;
  // Alarm suppression window: at most one alarm per port per this interval.
  TimeNs alarm_suppression = Sec(1);
};

struct DumbSwitchStats {
  uint64_t forwarded = 0;
  uint64_t id_replies = 0;
  uint64_t notifications_sent = 0;
  uint64_t notifications_relayed = 0;
  uint64_t alarms_suppressed = 0;
  uint64_t dropped_bad_tag = 0;
  uint64_t dropped_port_down = 0;
  uint64_t dropped_foreign = 0;
};

class DumbSwitch : public NetNode {
 public:
  DumbSwitch(Network* net, uint32_t index, DumbSwitchConfig config = DumbSwitchConfig());

  // Forwarding fast path: the tag pop / ECN mark / provenance append happen
  // in the packet's own body, and its handle moves from ingress to the egress
  // tx event. A relayed notification writes one private body that every
  // port's copy of the flood shares.
  void Receive(PooledPacket pkt, PortNum in_port) override;
  // Packets handed over by value are parked first, then take the path above.
  void HandlePacket(const Packet& pkt, PortNum in_port) override;
  void HandlePacket(Packet&& pkt, PortNum in_port) override;
  void HandlePortChange(PortNum port, bool up) override;

  uint64_t uid() const { return uid_; }
  uint32_t index() const { return index_; }
  const DumbSwitchStats& stats() const { return stats_; }

  // Soft-state per-port transmit counters (packet statistics, Section 8 future
  // work): best-effort, lost on power cycle, never consulted for forwarding.
  uint64_t port_tx_packets(PortNum p) const { return port_tx_packets_[p]; }
  uint64_t port_tx_bytes(PortNum p) const { return port_tx_bytes_[p]; }

 private:
  // Pops the first tag and forwards; handles ID queries; shared by transit packets
  // and self-generated replies. `in_port` is recorded as the provenance ingress
  // (0 for self-generated packets such as ID replies).
  void ForwardTagged(PooledPacket handle, uint64_t transit_probe_id, PortNum in_port);

  // Floods a hop-limited notification out every wired port except `skip`
  // (kPathEndTag = no skip) that is up now, from one event after the
  // forwarding delay.
  void FloodNotification(PooledPacket pkt, PortNum skip);

  void EmitAlarm(PortNum port, bool up);

  // The link at `port` when it is wired and up, else kInvalidLink.
  LinkIndex UpLinkAt(PortNum port) const;

  Network* net_;
  Simulator* sim_;
  // The network's packet-body pool: packets this switch makes or is handed
  // by value are parked here, so its events carry an 8-byte handle.
  PacketPool* packets_;
  uint32_t index_;
  uint64_t uid_;
  uint8_t num_ports_;
  DumbSwitchConfig config_;
  DumbSwitchStats stats_;

  std::vector<uint64_t> port_tx_packets_;
  std::vector<uint64_t> port_tx_bytes_;

  struct AlarmState {
    TimeNs last_sent = -Sec(1000);
    bool pending = false;
    bool pending_state = false;
    uint64_t seq = 0;
  };
  std::vector<AlarmState> alarms_;  // indexed by port
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_SWITCH_DUMB_SWITCH_H_
