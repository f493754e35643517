// WireNetAdapter: the Network a wire node's protocol objects run against.
//
// Each wire node (one OS thread) owns a private Simulator, a private full copy
// of the shared Topology, and exactly one protocol object — its own DumbSwitch
// or HostAgent, constructed against this adapter exactly as it would be against
// the simulated Network. The adapter overrides the virtual send surface:
//
//   * SendFromSwitch / SendFromHost no longer model serialization and
//     propagation — they stamp the packet id and sent_time like the base class,
//     check the local view of the adjacent link, and hand the packet to the
//     node's send hook, which serializes it into a kPacket frame on the port's
//     socket. Real kernels provide the queueing and the delay.
//   * QueueBacklog reports the port connection's unsent byte count, so the
//     switch's ECN marking reads real socket backpressure instead of the
//     simulated egress queue.
//   * EgressRoomAt always reports room now: the connection's send buffer
//     takes the frame, and socket backpressure paces it.
//
// Inbound, the node decodes kPacket frames and calls DeliverLocal(), which
// parks the packet and hands it to the registered NetNode — the same Receive
// entry the simulator uses. Link liveness flows through the inherited plumbing: the node
// flips its local topology's adjacent links as sockets come and go, and the
// base class's link observer schedules the usual detect-delayed
// HandlePortChange on the private simulator (the non-local endpoint's node
// pointer is null and is skipped).
#ifndef DUMBNET_SRC_WIRE_WIRE_NET_H_
#define DUMBNET_SRC_WIRE_WIRE_NET_H_

#include <cstdint>
#include <functional>

#include "src/net/network.h"

namespace dumbnet {
namespace wire {

struct WireNetStats {
  uint64_t tx_packets = 0;
  uint64_t rx_packets = 0;
  uint64_t dropped_port_down = 0;  // local link view said down at send time
  uint64_t dropped_unwired = 0;
};

class WireNetAdapter : public Network {
 public:
  // `out_port` is always a port of `self`; hosts use their single NIC (port 1).
  using SendHook = std::function<void(PortNum out_port, const Packet& pkt)>;
  // Unsent bytes queued on `self`'s port connection (ECN input).
  using BacklogProbe = std::function<int64_t(PortNum port)>;

  WireNetAdapter(Simulator* sim, Topology* topo, NodeId self,
                 NetworkConfig config = NetworkConfig());

  void set_send_hook(SendHook hook) { send_hook_ = std::move(hook); }
  void set_backlog_probe(BacklogProbe probe) { backlog_probe_ = std::move(probe); }

  using Network::SendFromHost;
  void SendFromSwitchOn(uint32_t sw, PortNum port, LinkIndex li, PooledPacket pkt) override;
  void SendFromHost(uint32_t host, PooledPacket pkt) override;
  int64_t QueueBacklog(LinkIndex li, const NodeId& from) const override;
  TimeNs EgressRoomAt(LinkIndex li, const NodeId& from, int64_t bytes) const override;

  // A decoded kPacket frame arrived on `in_port` of the local node.
  void DeliverLocal(Packet&& pkt, PortNum in_port);

  const NodeId& self() const { return self_; }
  const WireNetStats& wire_stats() const { return wire_stats_; }

 private:
  // Shared tail of both send paths: link-state check, id stamp, hook.
  void Emit(LinkIndex li, PortNum out_port, PooledPacket&& pkt);

  NodeId self_;
  NetNode* self_node_ = nullptr;  // lazily resolved after registration
  SendHook send_hook_;
  BacklogProbe backlog_probe_;
  WireNetStats wire_stats_;
};

}  // namespace wire
}  // namespace dumbnet

#endif  // DUMBNET_SRC_WIRE_WIRE_NET_H_
