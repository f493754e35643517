#include "src/net/network.h"

#include <algorithm>

#include "src/analysis/contracts.h"
#include "src/sim/footprint.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"
#include "src/util/rng.h"

namespace dumbnet {

namespace {
// One footprint cell per link direction. Two same-instant enqueues to the same
// direction commute up to per-packet latency: the final next_free / occupancy are
// order-independent (sums and maxes), only which packet serializes first shifts.
// Control-plane convergence must not depend on that order — the host/controller
// layers merge via LWW, so the annotation is a claim the explorer can test. The
// in-flight FIFO's push (Transmit) and pop (DeliverHead) share the cell: an
// enqueue and the head's delivery at one instant leave the same queue and file
// the same next delivery in either order.
constexpr const char kFpLinkFifo[] =
    "fifo link queue; occupancy and next_free are order-independent sums";
uint64_t DirCell(LinkIndex li, bool from_a) {
  return footprint::FpKey(li, from_a ? 1 : 0);
}

// Gray-failure drop draw: a pure SplitMix64 hash of (seed, link, direction,
// packet id). Deliberately not a shared Rng and not a stream position — the
// global order of same-instant transmits is not part of the model, but a
// packet's identity is, so each packet's fate on a lossy link direction is
// fixed by the seed alone.
uint64_t GrayDraw(uint64_t seed, LinkIndex li, bool from_a, uint64_t pkt_id) {
  SplitMix64 mix(seed ^ (static_cast<uint64_t>(li) * 0x9E3779B97F4A7C15ULL) ^
                 (from_a ? 0x5851F42D4C957F2DULL : 0) ^ pkt_id);
  return mix.Next();
}
}  // namespace

Network::Network(Simulator* sim, Topology* topo, NetworkConfig config)
    : sim_(sim), topo_(topo), config_(config) {
  dirs_.resize(topo_->link_count());
  switch_nodes_.assign(topo_->switch_count(), nullptr);
  host_nodes_.assign(topo_->host_count(), nullptr);
  switch_origin_seq_.assign(topo_->switch_count(), 0);
  host_origin_seq_.assign(topo_->host_count(), 0);
  topo_->AddLinkObserver([this](LinkIndex li, bool up) { OnLinkStateChange(li, up); });
}

void Network::RegisterSwitchNode(uint32_t sw, NetNode* node) { switch_nodes_[sw] = node; }

void Network::RegisterHostNode(uint32_t host, NetNode* node) { host_nodes_[host] = node; }

void Network::SendFromSwitchOn(uint32_t sw, PortNum port, LinkIndex li, PooledPacket pkt) {
  (void)port;
  if (li == kInvalidLink) {
    ++stats_.dropped_unwired;
    return;
  }
  Transmit(li, NodeId::Switch(sw), std::move(pkt));
}

void Network::SendFromHost(uint32_t host, PooledPacket pkt) {
  const LinkIndex li =
      host < topo_->host_count() ? topo_->host_at(host).link : kInvalidLink;
  if (li == kInvalidLink) {
    ++stats_.dropped_unwired;
    return;
  }
  if (pkt->sent_time == 0) {
    pkt.Mutable().sent_time = sim_->Now();
  }
  Transmit(li, NodeId::Host(host), std::move(pkt));
}

void Network::StampPacketId(const NodeId& from, PooledPacket& pkt) {
  if (pkt->pkt_id != 0) {
    return;  // already in flight; keep the origin's stamp across hops
  }
  uint64_t& seq =
      from.is_switch() ? switch_origin_seq_[from.index] : host_origin_seq_[from.index];
  const uint64_t origin =
      (from.is_switch() ? 0xA11CE000000000ULL : 0xB0B000000000ULL) ^ from.index;
  SplitMix64 mix(origin * 0x9E3779B97F4A7C15ULL ^ ++seq);
  const uint64_t id = mix.Next();
  pkt.Mutable().pkt_id = id != 0 ? id : 1;
}

void Network::Transmit(LinkIndex li, const NodeId& from, PooledPacket&& pkt) {
  // Per-packet fast path: id stamp, queue admission, serialization timing and
  // the in-flight FIFO push must not allocate. The declared-cold ends are the
  // drop branches (counter / trace bookkeeping) and the storage-growth
  // branch.
  DN_HOT_SCOPE("net.transmit");
  Simulator& sim = *sim_;
  StampPacketId(from, pkt);
  const Link& link = topo_->link_at(li);
  if (!link.up) {
    DN_HOT_EXEMPT("drop path: counter/trace registration may allocate");
    ++stats_.dropped_link_down;
    DN_COUNTER_INC("net.dropped_link_down");
    DN_TRACE_EVENT(kNetwork, kDrop, sim.Now(), li, 0);
    return;
  }
  const bool from_a = (link.a.node == from);
  // Covers the admission state and the in-flight FIFO push below.
  DN_FP_COMMUTES(kLinkQueue, DirCell(li, from_a), kFpLinkFifo);
  DirState& dir = dirs_[li][from_a ? 0 : 1];

  if (link.loss_ppm > 0) {
    // Gray failure: the link is up but eats packets. The draw is keyed on the
    // packet's stamped identity, so same-instant reordering of distinct
    // transmits never reshuffles which packets die (control-plane convergence
    // must still tolerate the lost copies themselves).
    const uint64_t draw = GrayDraw(config_.gray_seed, li, from_a, pkt->pkt_id);
    if (draw % 1000000u < link.loss_ppm) {
      DN_HOT_EXEMPT("drop path: counter/trace registration may allocate");
      ++stats_.dropped_gray;
      DN_COUNTER_INC("net.dropped_gray");
      DN_TRACE_EVENT(kNetwork, kDrop, sim.Now(), li, 1);
      return;
    }
  }

  const TimeNs now = sim.Now();
  DrainDir(dir, now, sim);

  const int64_t size = pkt->WireSize();
  if (dir.queued_bytes + size > config_.queue_capacity_bytes) {
    DN_HOT_EXEMPT("drop path: counter/trace registration may allocate");
    ++stats_.dropped_queue_full;
    DN_COUNTER_INC("net.dropped_queue_full");
    DN_TRACE_EVENT(kNetwork, kDrop, now, li, static_cast<uint64_t>(size));
    return;
  }

  const TimeNs start = std::max(now, dir.next_free);
  const TimeNs tx_done = start + TransmitTimeNs(size, link.bandwidth_gbps);
  const TimeNs arrival = tx_done + link.propagation_ns;
  dir.next_free = tx_done;
  dir.queued_bytes += size;

  const Endpoint to = from_a ? link.b : link.a;
  // The FIFO holds strictly ascending arrivals. An arrival at or before the
  // tail's (zero serialization time on a very fast link, or a cable shortened
  // mid-flight) takes the per-packet event path below instead.
  const bool queue = dir.flight.empty() || arrival > dir.flight.back_arrival();
  const bool pending_full = dir.pending.size() == dir.pending.capacity();
  const bool descriptor_short = queue && !descriptors_.HasSpare();
  const bool slot_short = (!queue || dir.flight.empty()) && !sim.SlotReady();
  if (pending_full || descriptor_short || slot_short) {
    DN_HOT_EXEMPT("storage growth: pending-drain capacity, descriptors, an event slot");
    if (pending_full) {
      dir.pending.reserve(std::max<size_t>(1, 2 * dir.pending.capacity()));
    }
    if (descriptor_short) {
      descriptors_.Grow();
    }
    if (slot_short) {
      sim.ReserveSlot();
    }
  }

  // Queue occupancy drains when serialization finishes. The drain is lazy
  // (see DirState in network.h); AllocSeq burns the seq the drain event used
  // to take here, so all later events keep their exact tie-break order.
  dir.AddPending(tx_done, sim.AllocSeq(), static_cast<int32_t>(size));

  const uint8_t side = from_a ? 0 : 1;
  if (queue) {
    // The delivery's seq is burned the same way; only the direction's head
    // delivery sits in the wheel, and DeliverHead files the rest in turn.
    const uint64_t seq = sim.AllocSeq();
    const bool file_head = dir.flight.empty();
    dir.flight.Push(descriptors_, arrival, seq, std::move(pkt));
    if (file_head) {
      sim.ScheduleAtSeq(arrival, seq, [this, li, side, to] { DeliverHead(li, side, to); });
    }
    return;
  }
  auto deliver = [this, to, pkt = std::move(pkt)]() mutable {
    DN_FP_SCOPE("net.deliver", to.node.index);
    Deliver(to, std::move(pkt));
  };
  static_assert(EventFn::kStoresInline<decltype(deliver)>);
  sim.ScheduleAt(arrival, std::move(deliver));
}

void Network::DeliverHead(LinkIndex li, uint8_t side, const Endpoint& to) {
  DN_FP_SCOPE("net.deliver", to.node.index);
  DN_FP_COMMUTES(kLinkQueue, DirCell(li, side == 0), kFpLinkFifo);
  DirState& dir = dirs_[li][side];
  // The head stays queued while its packet is delivered: the handler may
  // transmit, even on this direction, and must see a delivery already filed
  // (descriptors never move).
  Deliver(to, std::move(dir.flight.front().pkt));
  dir.flight.Pop(descriptors_);
  if (!dir.flight.empty()) {
    const FlightQueue::Descriptor& next = dir.flight.front();
    sim_->ScheduleAtSeq(next.arrival, next.seq,
                        [this, li, side, to] { DeliverHead(li, side, to); });
  }
}

void Network::Deliver(const Endpoint& to, PooledPacket&& pkt) {
  NetNode* node = NodeFor(to.node);
  if (node == nullptr) {
    ++stats_.dropped_unwired;
    return;
  }
  ++stats_.delivered;
  stats_.bytes_delivered += static_cast<uint64_t>(pkt->WireSize());
  node->Receive(std::move(pkt), to.port);
}

void Network::DrainDir(DirState& dir, TimeNs now, const Simulator& sim) {
  uint32_t h = dir.head;
  const uint32_t n = static_cast<uint32_t>(dir.pending.size());
  if (h == n) {
    return;
  }
  const uint64_t cur = sim.CurrentSeq();
  while (h < n && PendingDone(dir.pending[h], now, cur)) {
    dir.queued_bytes -= dir.pending[h].size;
    ++h;
  }
  if (h == n) {
    dir.pending.clear();
    dir.head = 0;
  } else {
    // Bound memory on long-lived busy directions: compact once the retired
    // prefix dominates. Pending depth is the in-flight burst, so this is rare.
    if (h >= 64 && h * 2 >= n) {
      dir.pending.erase(dir.pending.begin(), dir.pending.begin() + h);
      h = 0;
    }
    dir.head = h;
  }
}

Network::PacketPoolStats Network::packet_pool_stats() const {
  return {packets_->bodies(),   packets_->live(),     packets_->peak(),
          packets_->handles(),  descriptors_.nodes(), descriptors_.live(),
          descriptors_.peak()};
}

int64_t Network::QueueBacklog(LinkIndex li, const NodeId& from) const {
  if (li >= dirs_.size()) {
    return 0;
  }
  const Link& link = topo_->link_at(li);
  const DirState& dir = dirs_[li][link.a.node == from ? 0 : 1];
  if (dir.head == dir.pending.size()) {
    return dir.queued_bytes;
  }
  // Read-only view: subtract the pending entries whose virtual drain event
  // precedes the one executing now.
  const TimeNs now = sim_->Now();
  const uint64_t cur = sim_->CurrentSeq();
  int64_t backlog = dir.queued_bytes;
  for (size_t i = dir.head; i < dir.pending.size(); ++i) {
    if (!PendingDone(dir.pending[i], now, cur)) {
      break;
    }
    backlog -= dir.pending[i].size;
  }
  return backlog;
}

TimeNs Network::EgressRoomAt(LinkIndex li, const NodeId& from, int64_t bytes) const {
  const TimeNs now = sim_->Now();
  if (li >= dirs_.size()) {
    return now;
  }
  const Link& link = topo_->link_at(li);
  const DirState& dir = dirs_[li][link.a.node == from ? 0 : 1];
  const int64_t room = std::max<int64_t>(0, config_.queue_capacity_bytes - bytes);
  const uint64_t cur = sim_->CurrentSeq();
  TimeNs at = now;
  int64_t backlog = dir.queued_bytes;
  for (size_t i = dir.head; i < dir.pending.size() && backlog > room; ++i) {
    const PendingTx& p = dir.pending[i];
    if (!PendingDone(p, now, cur)) {
      // Retired by an event at p.done: any event filed there later runs
      // after it and sees the bytes gone.
      at = p.done;
    }
    backlog -= p.size;
  }
  return at;
}

void Network::OnLinkStateChange(LinkIndex li, bool up) {
  const Link link = topo_->link_at(li);
  for (const Endpoint& e : {link.a, link.b}) {
    sim_->ScheduleAfter(config_.link_detect_delay, [this, e, up] {
      DN_FP_SCOPE("net.link_detect", e.node.index);
      NetNode* node = NodeFor(e.node);
      if (node != nullptr) {
        node->HandlePortChange(e.port, up);
      }
    });
  }
}

}  // namespace dumbnet
