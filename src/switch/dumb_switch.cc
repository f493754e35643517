#include "src/switch/dumb_switch.h"

#include <bitset>

#include "src/analysis/audit.h"
#include "src/analysis/contracts.h"
#include "src/sim/footprint.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace dumbnet {

namespace {
// Footprint cell for the per-port alarm suppression window (last_sent / pending /
// pending_state / seq). Data-plane forwarding state is deliberately unrecorded:
// transient loss under in-flight failures is racy by design (Section 4.3).
constexpr uint64_t kSaltAlarm = 0xA1A2;
}  // namespace

DumbSwitch::DumbSwitch(Network* net, uint32_t index, DumbSwitchConfig config)
    : net_(net),
      sim_(&net->sim()),
      packets_(&net->packet_pool()),
      index_(index),
      uid_(net->topo().switch_at(index).uid),
      num_ports_(net->topo().switch_at(index).num_ports),
      config_(config),
      port_tx_packets_(static_cast<size_t>(num_ports_) + 1, 0),
      port_tx_bytes_(static_cast<size_t>(num_ports_) + 1, 0),
      alarms_(static_cast<size_t>(num_ports_) + 1) {
  net->RegisterSwitchNode(index, this);
}

LinkIndex DumbSwitch::UpLinkAt(PortNum port) const {
  const LinkIndex li = net_->topo().LinkAtPort(index_, port);
  return li != kInvalidLink && net_->topo().link_at(li).up ? li : kInvalidLink;
}

void DumbSwitch::HandlePacket(const Packet& pkt, PortNum in_port) {
  Receive(packets_->Park(Packet(pkt)), in_port);
}

void DumbSwitch::HandlePacket(Packet&& pkt, PortNum in_port) {
  Receive(packets_->Park(std::move(pkt)), in_port);
}

void DumbSwitch::Receive(PooledPacket pkt, PortNum in_port) {
  if (pkt->eth.ether_type != kEtherTypeDumbNet) {
    // The dumb switch speaks only DumbNet; a mixed MPLS deployment would pass other
    // traffic through the legacy pipeline, which we do not model here.
    ++stats_.dropped_foreign;
    return;
  }
  // Hop-limited broadcast notifications carry no tags.
  if (pkt->tags.empty()) {
    if (const auto* ev = pkt->As<PortEventPayload>(); ev != nullptr && ev->hops_left > 0) {
      // This copy's siblings may still be in flight on other links: the relay
      // writes a body of its own (one clone per relay), which every port of
      // the flood then shares.
      auto& relay = std::get<PortEventPayload>(pkt.Mutable().payload);
      relay.hops_left = static_cast<uint8_t>(relay.hops_left - 1);
      ++stats_.notifications_relayed;
      FloodNotification(std::move(pkt), in_port);
    }
    return;
  }
  // Invariant (Section 3.2): every tagged packet entering a switch carries a
  // ø-terminated stack within the one-byte-per-hop header budget.
  DUMBNET_AUDIT(pkt->tags.size() <= audit::kMaxTagStackDepth,
                "tag stack exceeds header budget at switch hop");
  DUMBNET_AUDIT(pkt->tags.back() == kPathEndTag,
                "tag stack not \xC3\xB8-terminated at switch hop");
  uint64_t probe_id = 0;
  if (const auto* probe = pkt->As<ProbePayload>()) {
    probe_id = probe->probe_id;
  }
  ForwardTagged(std::move(pkt), probe_id, in_port);
}

void DumbSwitch::ForwardTagged(PooledPacket handle, uint64_t transit_probe_id,
                               PortNum in_port) {
  // Per-packet fast path: tag pop, egress check, ECN read, counters and
  // handing the packet to its tx event must not allocate. The declared-cold
  // ends are the drop branches (counter / trace registration) and storage
  // growth (a chunk of packet bodies, an event slot).
  DN_HOT_SCOPE("switch.forward");
  // A tagged packet's body is its own: the tag pops in place.
  Packet& pkt = handle.Mutable();
  const PortNum tag = pkt.tags.front();
  if (tag == kPathEndTag) {
    // ø reached a switch: the path was one hop short. Drop.
    DN_HOT_EXEMPT("drop path: counter/trace registration may allocate");
    ++stats_.dropped_bad_tag;
    DN_COUNTER_INC("switch.dropped_bad_tag");
    DN_TRACE_EVENT(kSwitch, kDrop, sim_->Now(), uid_, tag);
    return;
  }
  pkt.tags.erase(pkt.tags.begin());

  if (tag == kIdQueryTag) {
    // Reply with our unique ID along the remaining tags (paper Section 4.1). The
    // reply is itself a tagged packet that we forward through the normal pipeline.
    if (pkt.tags.empty()) {
      DN_HOT_EXEMPT("drop path: counter/trace registration may allocate");
      ++stats_.dropped_bad_tag;
      DN_COUNTER_INC("switch.dropped_bad_tag");
      return;
    }
    Packet reply;
    reply.eth.src_mac = uid_;  // switches have no MAC; the UID is informational
    reply.eth.dst_mac = kBroadcastMac;
    reply.eth.ether_type = kEtherTypeDumbNet;
    reply.tags = std::move(pkt.tags);
    reply.payload = IdReplyPayload{transit_probe_id, uid_};
    reply.sent_time = pkt.sent_time;
    ++stats_.id_replies;
    ForwardTagged(packets_->Park(std::move(reply)), transit_probe_id, PortNum{0});
    return;
  }

  // One egress-link lookup per packet: the port check, the ECN backlog read
  // and the tx event all use it.
  const LinkIndex li = tag <= num_ports_ ? UpLinkAt(tag) : kInvalidLink;
  if (li == kInvalidLink) {
    DN_HOT_EXEMPT("drop path: counter/trace registration may allocate");
    if (tag > num_ports_) {
      ++stats_.dropped_bad_tag;
      DN_COUNTER_INC("switch.dropped_bad_tag");
    } else {
      ++stats_.dropped_port_down;
      DN_COUNTER_INC("switch.dropped_port_down");
    }
    DN_TRACE_EVENT(kSwitch, kDrop, sim_->Now(), uid_, tag);
    return;
  }
  // ECN marking: if the egress queue this packet is about to join is deep, set
  // Congestion Experienced on data packets. Reads the physical queue only — no
  // switch state involved.
  if (config_.enable_ecn) {
    if (auto* data = std::get_if<DataPayload>(&pkt.payload);
        data != nullptr && !data->is_ack &&
        net_->QueueBacklog(li, NodeId::Switch(index_)) > config_.ecn_threshold_bytes) {
      data->ecn = true;
    }
  }
  ++stats_.forwarded;
  ++port_tx_packets_[tag];
  port_tx_bytes_[tag] += static_cast<uint64_t>(pkt.WireSize());
  {
    DN_HOT_EXEMPT("telemetry: counter registration on first use");
    DN_COUNTER_INC("switch.forwarded");
    DN_TRACE_EVENT(kSwitch, kForward, sim_->Now(), uid_, tag);
  }
  // Path provenance: record the hop actually taken so the receiving host can
  // compare it with the sender's promise. Only armed packets carry a record
  // (its hops were reserved when the sender armed it); runs with telemetry
  // disabled skip the append entirely.
  if (telemetry::Enabled()) {
    pkt.provenance.AddHop(telemetry::PathHop{uid_, in_port, tag});
  }
  auto tx = [this, tag, li, pkt = std::move(handle)]() mutable {
    DN_FP_SCOPE("switch.tx", uid_);
    net_->SendFromSwitchOn(index_, tag, li, std::move(pkt));
  };
  static_assert(EventFn::kStoresInline<decltype(tx)>);
  ReserveEventSlot(*sim_);
  sim_->ScheduleAfter(config_.forwarding_delay, std::move(tx));
}

void DumbSwitch::HandlePortChange(PortNum port, bool up) {
  if (port >= alarms_.size()) {
    return;
  }
  DN_FP_SCOPE("switch.port_change", uid_);
  DN_FP_WRITE(kSwitch, footprint::FpKey(uid_, port, kSaltAlarm));
  AlarmState& alarm = alarms_[port];
  const TimeNs now = sim_->Now();
  if (now - alarm.last_sent >= config_.alarm_suppression) {
    EmitAlarm(port, up);
    return;
  }
  // Within the suppression window: remember the latest state and (once) schedule a
  // trailing alarm at the window edge. A flapping link thus produces one alarm per
  // second carrying its most recent state.
  ++stats_.alarms_suppressed;
  alarm.pending_state = up;
  if (!alarm.pending) {
    alarm.pending = true;
    TimeNs fire_at = alarm.last_sent + config_.alarm_suppression;
    sim_->ScheduleAt(fire_at, [this, port] {
      DN_FP_SCOPE("switch.alarm_trailing", uid_);
      DN_FP_WRITE(kSwitch, footprint::FpKey(uid_, port, kSaltAlarm));
      AlarmState& a = alarms_[port];
      if (a.pending) {
        a.pending = false;
        EmitAlarm(port, a.pending_state);
      }
    });
  }
}

void DumbSwitch::EmitAlarm(PortNum port, bool up) {
  AlarmState& alarm = alarms_[port];
  alarm.last_sent = sim_->Now();
  Packet pkt;
  pkt.eth.src_mac = uid_;
  pkt.eth.dst_mac = kBroadcastMac;
  pkt.eth.ether_type = kEtherTypeDumbNet;
  pkt.payload = PortEventPayload{uid_,        port,       up, config_.notify_hops,
                                 alarm.seq++, sim_->Now()};
  ++stats_.notifications_sent;
  FloodNotification(packets_->Park(std::move(pkt)), kPathEndTag);
}

void DumbSwitch::FloodNotification(PooledPacket pkt, PortNum skip) {
  // A notification storm sends one of these per switch per copy heard: the
  // port scan and filing the event must not allocate (storage growth aside).
  DN_HOT_SCOPE("switch.flood");
  // One event sends on every port, in ascending port order. That is
  // order-equivalent to one event per port: those would have had adjacent
  // seqs at one timestamp, so nothing could run between them. The port set is
  // captured now: a port that comes up before the event fires is not used,
  // and one that goes down meanwhile is dropped by the network.
  std::bitset<256> ports;
  for (uint32_t p = 1; p <= num_ports_; ++p) {
    if (p != skip && UpLinkAt(static_cast<PortNum>(p)) != kInvalidLink) {
      ports.set(p);
    }
  }
  if (ports.none()) {
    return;
  }
  // Every port's copy shares the one body; the last port takes the event's
  // own handle. An unstamped body (an alarm's first flood) is cloned per port
  // when the network stamps it, so each copy gets its own id, in ascending
  // port order.
  auto tx = [this, ports, pkt = std::move(pkt)]() mutable {
    DN_FP_SCOPE("switch.tx", uid_);
    size_t left = ports.count();
    for (uint32_t p = 1; p <= num_ports_; ++p) {
      if (ports.test(p)) {
        net_->SendFromSwitch(index_, static_cast<PortNum>(p),
                             --left == 0 ? std::move(pkt) : pkt.Share());
      }
    }
  };
  static_assert(EventFn::kStoresInline<decltype(tx)>);
  ReserveEventSlot(*sim_);
  sim_->ScheduleAfter(config_.forwarding_delay, std::move(tx));
}

}  // namespace dumbnet
