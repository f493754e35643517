#include "src/switch/mpls_switch.h"

namespace dumbnet {

MplsSwitch::MplsSwitch(Network* net, uint32_t index, MplsSwitchConfig config)
    : net_(net),
      sim_(&net->sim()),
      index_(index),
      uid_(net->topo().switch_at(index).uid),
      num_ports_(net->topo().switch_at(index).num_ports),
      config_(config),
      last_alarm_(static_cast<size_t>(num_ports_) + 1, -Sec(1000)),
      alarm_seq_(static_cast<size_t>(num_ports_) + 1, 0) {
  net->RegisterSwitchNode(index, this);
}

bool MplsSwitch::PortIsUp(PortNum port) const {
  LinkIndex li = net_->topo().LinkAtPort(index_, port);
  return li != kInvalidLink && net_->topo().link_at(li).up;
}

void MplsSwitch::HandlePacket(const Packet& pkt, PortNum in_port) {
  if (pkt.eth.ether_type == kEtherTypeDumbNet) {
    if (pkt.tags.empty()) {
      // Port-event broadcast: the Arista testbed relays these with a monitoring
      // script; we relay in the pipeline like the dumb switch does.
      if (const auto* ev = pkt.As<PortEventPayload>(); ev != nullptr && ev->hops_left > 0) {
        Packet relay = pkt;
        std::get_if<PortEventPayload>(&relay.payload)->hops_left =
            static_cast<uint8_t>(ev->hops_left - 1);
        for (PortNum p = 1; p <= num_ports_; ++p) {
          if (p != in_port && PortIsUp(p)) {
            sim_->ScheduleAfter(config_.forwarding_delay,
                                [this, p, relay] { net_->SendFromSwitch(index_, p, relay); });
          }
        }
      }
      return;
    }
    uint64_t probe_id = 0;
    if (const auto* probe = pkt.As<ProbePayload>()) {
      probe_id = probe->probe_id;
    }
    ForwardLabeled(pkt, probe_id);
    return;
  }
  // Anything else is legacy traffic through the learning-bridge pipeline.
  BridgeEthernet(pkt, in_port);
}

void MplsSwitch::ForwardLabeled(Packet pkt, uint64_t transit_probe_id) {
  const PortNum label = pkt.tags.front();
  if (label == kPathEndTag) {
    ++stats_.dropped;
    return;
  }
  pkt.tags.erase(pkt.tags.begin());

  if (label == kIdQueryTag) {
    // Slow path: "the switch ID query packet is converted to a UDP packet and
    // handled by the switch's CPU" — same reply, extra latency.
    if (pkt.tags.empty()) {
      ++stats_.dropped;
      return;
    }
    ++stats_.cpu_id_replies;
    Packet reply;
    reply.eth.src_mac = uid_;
    reply.eth.dst_mac = kBroadcastMac;
    reply.eth.ether_type = kEtherTypeDumbNet;
    reply.tags = std::move(pkt.tags);
    reply.payload = IdReplyPayload{transit_probe_id, uid_};
    sim_->ScheduleAfter(config_.cpu_delay, [this, reply = std::move(reply),
                                            transit_probe_id]() mutable {
      ForwardLabeled(std::move(reply), transit_probe_id);
    });
    return;
  }

  // Static rule: label k -> port k.
  if (label > num_ports_ || !PortIsUp(label)) {
    ++stats_.dropped;
    return;
  }
  ++stats_.label_forwarded;
  sim_->ScheduleAfter(config_.forwarding_delay, [this, label, pkt = std::move(pkt)] {
    net_->SendFromSwitch(index_, label, pkt);
  });
}

void MplsSwitch::BridgeEthernet(const Packet& pkt, PortNum in_port) {
  mac_table_[pkt.eth.src_mac] = {in_port, sim_->Now()};
  auto forward = [this, &pkt](PortNum out) {
    sim_->ScheduleAfter(config_.forwarding_delay,
                        [this, out, pkt] { net_->SendFromSwitch(index_, out, pkt); });
  };
  if (pkt.eth.dst_mac != kBroadcastMac) {
    auto it = mac_table_.find(pkt.eth.dst_mac);
    if (it != mac_table_.end() && sim_->Now() - it->second.second < config_.mac_age_time &&
        it->second.first != in_port && PortIsUp(it->second.first)) {
      ++stats_.ethernet_forwarded;
      forward(it->second.first);
      return;
    }
  }
  ++stats_.ethernet_flooded;
  for (PortNum p = 1; p <= num_ports_; ++p) {
    if (p != in_port && PortIsUp(p)) {
      forward(p);
    }
  }
}

void MplsSwitch::HandlePortChange(PortNum port, bool up) {
  if (port >= last_alarm_.size()) {
    return;
  }
  // The testbed script sends one notification per event with simple suppression.
  if (sim_->Now() - last_alarm_[port] < config_.alarm_suppression) {
    return;
  }
  last_alarm_[port] = sim_->Now();
  Packet pkt;
  pkt.eth.src_mac = uid_;
  pkt.eth.dst_mac = kBroadcastMac;
  pkt.eth.ether_type = kEtherTypeDumbNet;
  pkt.payload = PortEventPayload{uid_,  port, up, config_.notify_hops,
                                 alarm_seq_[port]++, sim_->Now()};
  ++stats_.notifications_sent;
  for (PortNum p = 1; p <= num_ports_; ++p) {
    if (PortIsUp(p)) {
      sim_->ScheduleAfter(config_.forwarding_delay,
                          [this, p, pkt] { net_->SendFromSwitch(index_, p, pkt); });
    }
  }
}

}  // namespace dumbnet
