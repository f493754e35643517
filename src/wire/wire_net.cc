#include "src/wire/wire_net.h"

#include <utility>

#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace dumbnet {
namespace wire {

WireNetAdapter::WireNetAdapter(Simulator* sim, Topology* topo, NodeId self,
                               NetworkConfig config)
    : Network(sim, topo, config), self_(self) {}

void WireNetAdapter::SendFromSwitchOn(uint32_t sw, PortNum port, LinkIndex li,
                                      PooledPacket pkt) {
  if (NodeId::Switch(sw) != self_) {
    DN_ERROR << "wire: switch " << sw << " sent through node "
             << self_.ToString() << "'s adapter";
    return;
  }
  Emit(li, port, std::move(pkt));
}

void WireNetAdapter::SendFromHost(uint32_t host, PooledPacket pkt) {
  if (NodeId::Host(host) != self_) {
    DN_ERROR << "wire: host " << host << " sent through node "
             << self_.ToString() << "'s adapter";
    return;
  }
  if (pkt->sent_time == 0) {
    pkt.Mutable().sent_time = sim().Now();
  }
  Emit(topo().host_at(host).link, 1, std::move(pkt));
}

void WireNetAdapter::Emit(LinkIndex li, PortNum out_port, PooledPacket&& pkt) {
  if (li == kInvalidLink) {
    ++wire_stats_.dropped_unwired;
    return;
  }
  if (!topo().link_at(li).up) {
    // The local link view mirrors socket liveness, so this is "the NIC knows
    // the port is down": the packet is dropped exactly like real hardware
    // would, and recovery is the protocol's job.
    ++wire_stats_.dropped_port_down;
    DN_COUNTER_INC("wire.dropped_port_down");
    return;
  }
  StampPacketId(self_, pkt);
  ++wire_stats_.tx_packets;
  DN_COUNTER_INC("wire.tx_packets");
  if (send_hook_) {
    send_hook_(out_port, *pkt);
  }
}

int64_t WireNetAdapter::QueueBacklog(LinkIndex li, const NodeId& from) const {
  (void)li;
  if (from != self_ || !backlog_probe_) {
    return 0;
  }
  // Map the link back to the local port; `li` is always adjacent to self when
  // the switch's ECN marking asks.
  if (from.is_switch()) {
    const Link& link = topo().link_at(li);
    return backlog_probe_(link.Side(from).port);
  }
  return backlog_probe_(1);
}

TimeNs WireNetAdapter::EgressRoomAt(LinkIndex li, const NodeId& from, int64_t bytes) const {
  (void)li;
  (void)from;
  (void)bytes;
  return sim().Now();
}

void WireNetAdapter::DeliverLocal(Packet&& pkt, PortNum in_port) {
  NetNode* node = self_node_ != nullptr ? self_node_ : (self_node_ = NodeFor(self_));
  if (node == nullptr) {
    ++wire_stats_.dropped_unwired;
    return;
  }
  ++wire_stats_.rx_packets;
  DN_COUNTER_INC("wire.rx_packets");
  node->Receive(packet_pool().Park(std::move(pkt)), in_port);
}

}  // namespace wire
}  // namespace dumbnet
