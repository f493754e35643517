// The simulated fabric: delivers packets across links with serialization,
// propagation and bounded FIFO queueing, and tells attached nodes when their port
// state changes (the "physical signal" DumbNet switches monitor).
#ifndef DUMBNET_SRC_NET_NETWORK_H_
#define DUMBNET_SRC_NET_NETWORK_H_

#include <array>
#include <cstdint>
#include <vector>

#include "src/analysis/contracts.h"
#include "src/net/flight_queue.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"
#include "src/topo/topology.h"

namespace dumbnet {

// Anything attached to the fabric: a switch model or a host NIC.
class NetNode {
 public:
  virtual ~NetNode() = default;

  // The fabric's delivery: `pkt` is this node's handle to the packet's pooled
  // body, which the other copies of a flood may share. Nodes on the packet
  // path (DumbSwitch, HostAgent) override it to keep the handle. The default
  // hands an unshared body over as an rvalue and a shared one by const
  // reference.
  virtual void Receive(PooledPacket pkt, PortNum in_port) {
    if (pkt.shared()) {
      HandlePacket(*pkt, in_port);
    } else {
      HandlePacket(std::move(pkt.Mutable()), in_port);
    }
  }

  // A packet arrived on `in_port` (hosts always see port 1).
  virtual void HandlePacket(const Packet& pkt, PortNum in_port) = 0;

  // Rvalue delivery: the caller hands over ownership of the packet. Nodes
  // that keep packets override this to move them instead of copying; the
  // default falls back to the const overload above.
  virtual void HandlePacket(Packet&& pkt, PortNum in_port) { HandlePacket(pkt, in_port); }

  // Physical port state changed (link failure/recovery), after detection delay.
  virtual void HandlePortChange(PortNum port, bool up) {
    (void)port;
    (void)up;
  }
};

// Makes the next schedule on `sim` allocation-free. Fast paths (DN_HOT_SCOPE)
// that file a per-packet event call it first, so the one schedule that would
// grow the event pool is declared cold.
inline void ReserveEventSlot(Simulator& sim) {
  if (!sim.SlotReady()) {
    DN_HOT_EXEMPT("storage growth: an event slot");
    sim.ReserveSlot();
  }
}

struct NetworkConfig {
  // Per-direction egress queue capacity. 512 KB ~ a shallow commodity switch buffer.
  int64_t queue_capacity_bytes = 512 * 1024;
  // Time from a physical link dying to the endpoints noticing (loss-of-signal).
  TimeNs link_detect_delay = Ms(1);
  // Seed for the gray-failure drop stream (Link::loss_ppm). The drop decision is
  // a pure hash of (seed, link, direction, packet id), never a shared Rng
  // stream position: packet ids are stamped from per-origin counters on first
  // transmit, so the drop pattern is a function of which packets each node
  // sent, not of the global order in which transmits happened to run.
  uint64_t gray_seed = 0xD0BBE701;
};

struct NetworkStats {
  uint64_t delivered = 0;
  uint64_t dropped_link_down = 0;
  uint64_t dropped_queue_full = 0;
  uint64_t dropped_gray = 0;  // eaten by an up-but-lossy link (Link::loss_ppm)
  uint64_t dropped_unwired = 0;
  uint64_t bytes_delivered = 0;
};

// The simulated transport. The send surface (SendFromSwitch / SendFromHost /
// QueueBacklog) is virtual so the same protocol objects can run over a
// different packet carrier: src/wire's WireNetAdapter overrides it to emit
// frames on real sockets while reusing the registration, topology, and
// port-change plumbing below.
class Network {
 public:
  Network(Simulator* sim, Topology* topo, NetworkConfig config = NetworkConfig());
  virtual ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  void RegisterSwitchNode(uint32_t sw, NetNode* node);
  void RegisterHostNode(uint32_t host, NetNode* node);

  // Emits a packet from switch `sw` out `port`. Silently drops (with stats) if the
  // port is unwired or the link is down — exactly what real hardware does.
  void SendFromSwitch(uint32_t sw, PortNum port, PooledPacket pkt) {
    SendFromSwitchOn(sw, port, topo_->LinkAtPort(sw, port), std::move(pkt));
  }
  void SendFromSwitch(uint32_t sw, PortNum port, Packet pkt) {
    SendFromSwitch(sw, port, packets_->Park(std::move(pkt)));
  }

  // The same with the egress link already resolved: `li` must be
  // topo().LinkAtPort(sw, port) (kInvalidLink when unwired). A wired port's
  // link never changes, so the forwarding path resolves it once per packet.
  virtual void SendFromSwitchOn(uint32_t sw, PortNum port, LinkIndex li, PooledPacket pkt);

  // Emits a packet from a host's single NIC.
  virtual void SendFromHost(uint32_t host, PooledPacket pkt);
  void SendFromHost(uint32_t host, Packet pkt) {
    SendFromHost(host, packets_->Park(std::move(pkt)));
  }

  // The simulator every node's events run on. Node constructors cache it.
  Simulator& sim() { return *sim_; }
  const Simulator& sim() const { return *sim_; }
  Topology& topo() { return *topo_; }
  const Topology& topo() const { return *topo_; }
  const NetworkStats& stats() const { return stats_; }

  // The packet-body pool: every packet this network carries lives in one of
  // its bodies from its first transmit (or park) to its last delivery. Stable
  // for the network's lifetime (switches and hosts cache it at construction).
  PacketPool& packet_pool() { return *packets_; }

  // Body and descriptor accounting: tests assert every one comes back once
  // the events and queues holding them are gone, and benches report the
  // high-water marks.
  struct PacketPoolStats {
    size_t bodies = 0;            // ever allocated
    size_t bodies_live = 0;       // held by a handle (an event or a descriptor)
    size_t bodies_peak = 0;       // high-water mark of bodies_live
    size_t handles_live = 0;      // handles to live bodies: one per live
                                  // descriptor, the rest held by events
    size_t descriptors = 0;       // ever allocated
    size_t descriptors_live = 0;  // packets on the wire, queued in a FIFO
    size_t descriptors_peak = 0;  // high-water mark of descriptors_live
  };
  PacketPoolStats packet_pool_stats() const;

  // Bytes currently queued for transmission on the (link, direction-from-`from`)
  // egress — the physical signal ECN marking reads (no state added to switches).
  virtual int64_t QueueBacklog(LinkIndex li, const NodeId& from) const;

  // The earliest virtual time, not before now, at which `bytes` more fit in
  // that egress queue if nothing else is sent: now when they fit already,
  // else the serialization end that frees enough of the backlog (the queue's
  // full drain when `bytes` exceed its capacity).
  virtual TimeNs EgressRoomAt(LinkIndex li, const NodeId& from, int64_t bytes) const;

 protected:
  // Registered node for `id`, or nullptr. Wire adapters deliver decoded frames
  // through this — the same registration the simulated delivery path uses.
  NetNode* NodeFor(const NodeId& id) const {
    return id.is_switch() ? switch_nodes_[id.index] : host_nodes_[id.index];
  }

  // Stamps a fabric-unique packet id from `from`'s origin counter on first
  // transmit (no-op for packets already in flight). A node's ids depend only on
  // its own emission order, so everything keyed on them — like the gray-loss
  // drop stream — is too. A shared unstamped body is cloned first
  // (PooledPacket::Mutable), so each copy of a flood gets its own id.
  void StampPacketId(const NodeId& from, PooledPacket& pkt);

 private:
  void Transmit(LinkIndex li, const NodeId& from, PooledPacket&& pkt);
  // The delivery event of direction (li, side), whose far end is `to`:
  // delivers the FIFO head and files the next head under its burned seq.
  void DeliverHead(LinkIndex li, uint8_t side, const Endpoint& to);
  void Deliver(const Endpoint& to, PooledPacket&& pkt);
  void OnLinkStateChange(LinkIndex li, bool up);

  // Egress queue occupancy per link direction (0: a->b, 1: b->a).
  //
  // Occupancy is drained *lazily*: instead of scheduling one event per packet
  // to subtract its bytes at serialization end (which was ~27% of all events
  // in a large bring-up), each transmit appends a PendingTx and burns the seq
  // the drain event would have carried (Simulator::AllocSeq). The next touch
  // of the direction — a transmit or a QueueBacklog read — retires every
  // entry the scheduled event would already have run for: strictly earlier
  // `done`, or same `done` with seq below the executing event's
  // (Simulator::CurrentSeq). Observable occupancy is bit-identical to the
  // scheduling implementation, including same-nanosecond ties.
  struct PendingTx {
    TimeNs done = 0;    // serialization finish = the virtual drain event's time
    uint64_t seq = 0;   // the seq that drain event would have carried
    int32_t size = 0;
  };
  // Packets on the wire wait in `flight`, not in the timer wheel: only the
  // head has a delivery event filed, and each delivery files the next under
  // the seq burned for it at transmit (Simulator::ScheduleAtSeq), so every
  // delivery runs at the (arrival, seq) a per-packet event would have had.
  struct DirState {
    FlightQueue flight;  // arrival and seq both ascend
    TimeNs next_free = 0;
    int64_t queued_bytes = 0;
    std::vector<PendingTx> pending;  // FIFO: `done` and `seq` both ascend
    uint32_t head = 0;               // first unretired entry

    // Appends within the capacity Transmit's storage-growth branch reserved.
    void AddPending(TimeNs done, uint64_t seq, int32_t size) {
      pending.push_back({done, seq, size});
    }
  };
  static bool PendingDone(const PendingTx& p, TimeNs now, uint64_t cur_seq) {
    return p.done < now || (p.done == now && p.seq < cur_seq);
  }
  // Retires every pending entry whose virtual drain event precedes the one
  // executing on `sim` right now.
  static void DrainDir(DirState& dir, TimeNs now, const Simulator& sim);

  Simulator* sim_;
  Topology* topo_;
  NetworkConfig config_;
  NetworkStats stats_;
  // Declared before dirs_: the flight queues hold descriptors from
  // `descriptors_`, and those hold bodies from `packets_`.
  PacketPool::Ptr packets_ = PacketPool::Create();
  FlightQueue::DescriptorPool descriptors_;
  std::vector<std::array<DirState, 2>> dirs_;
  std::vector<NetNode*> switch_nodes_;
  std::vector<NetNode*> host_nodes_;
  // Per-origin packet-id counters (see StampPacketId).
  std::vector<uint64_t> switch_origin_seq_;
  std::vector<uint64_t> host_origin_seq_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_NET_NETWORK_H_
