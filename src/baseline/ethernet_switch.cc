#include "src/baseline/ethernet_switch.h"

#include <algorithm>

#include "src/util/logging.h"

namespace dumbnet {
namespace {

// Bridge IDs reuse the switch UID space; lower wins the root election.
constexpr TimeNs kTcSuppression = Ms(10);

}  // namespace

EthernetSwitch::EthernetSwitch(Network* net, uint32_t index, EthernetSwitchConfig config)
    : net_(net),
      sim_(&net->sim()),
      index_(index),
      bridge_id_(net->topo().switch_at(index).uid),
      num_ports_(net->topo().switch_at(index).num_ports),
      config_(config),
      root_id_(bridge_id_),
      ports_(static_cast<size_t>(num_ports_) + 1) {
  net->RegisterSwitchNode(index, this);
  if (config_.run_stp) {
    // Stagger the first hello a hair so same-time BPDU storms stay deterministic.
    sim_->ScheduleAfter(Us(10) + static_cast<TimeNs>(index % 16), [this] {
      OriginateHello();
    });
    Reelect();
  } else {
    for (PortNum p = 1; p <= num_ports_; ++p) {
      ports_[p].state = PortState::kForwarding;
    }
  }
}

bool EthernetSwitch::PortWiredAndUp(PortNum p) const {
  LinkIndex li = net_->topo().LinkAtPort(index_, p);
  return li != kInvalidLink && net_->topo().link_at(li).up;
}

bool EthernetSwitch::Better(const BpduPayload& a, const BpduPayload& b) {
  if (a.root_id != b.root_id) {
    return a.root_id < b.root_id;
  }
  if (a.cost != b.cost) {
    return a.cost < b.cost;
  }
  if (a.sender_id != b.sender_id) {
    return a.sender_id < b.sender_id;
  }
  return a.sender_port < b.sender_port;
}

void EthernetSwitch::HandlePacket(const Packet& pkt, PortNum in_port) {
  if (pkt.eth.ether_type == kEtherTypeBpdu) {
    if (const auto* bpdu = pkt.As<BpduPayload>(); bpdu != nullptr && config_.run_stp) {
      HandleBpdu(*bpdu, in_port);
    }
    return;
  }
  HandleDataFrame(pkt, in_port);
}

void EthernetSwitch::HandleBpdu(const BpduPayload& bpdu, PortNum in_port) {
  if (bpdu.topology_change) {
    // Topology-change notification: flush and relay (with suppression).
    if (sim_->Now() - last_tc_flood_ > kTcSuppression) {
      last_tc_flood_ = sim_->Now();
      ++stats_.topology_changes;
      FlushMacTable();
      FloodTopologyChange(in_port);
    }
    return;
  }
  PortInfo& port = ports_[in_port];
  const bool refresh_only =
      port.has_bpdu && bpdu.root_id == port.best.root_id && bpdu.cost == port.best.cost &&
      bpdu.sender_id == port.best.sender_id && bpdu.sender_port == port.best.sender_port;
  if (refresh_only) {
    port.heard_at = sim_->Now();  // keepalive; no re-election needed
    return;
  }
  if (!port.has_bpdu || Better(bpdu, port.best) || bpdu.sender_id == port.best.sender_id) {
    port.best = bpdu;
    port.has_bpdu = true;
    port.heard_at = sim_->Now();
    Reelect();
  }
}

void EthernetSwitch::OriginateHello() {
  // Expire stale BPDUs first.
  bool changed = false;
  for (PortNum p = 1; p <= num_ports_; ++p) {
    PortInfo& port = ports_[p];
    if (port.has_bpdu && sim_->Now() - port.heard_at > config_.max_age) {
      port.has_bpdu = false;
      changed = true;
    }
  }
  if (changed) {
    Reelect();
  }
  for (PortNum p = 1; p <= num_ports_; ++p) {
    if (ports_[p].role == PortRole::kDesignated && PortWiredAndUp(p)) {
      SendBpdu(p, false);
    }
  }
  sim_->ScheduleAfter(config_.hello_interval, [this] { OriginateHello(); });
}

void EthernetSwitch::SendBpdu(PortNum port, bool topology_change) {
  BpduPayload bpdu;
  bpdu.root_id = root_id_;
  bpdu.cost = root_cost_;
  bpdu.sender_id = bridge_id_;
  bpdu.sender_port = port;
  bpdu.topology_change = topology_change;
  Packet pkt = MakeEthernetPacket(bridge_id_, kBroadcastMac, kEtherTypeBpdu, bpdu);
  ++stats_.bpdus_sent;
  sim_->ScheduleAfter(config_.forwarding_delay,
                      [this, port, pkt = std::move(pkt)] { net_->SendFromSwitch(index_, port, pkt); });
}

void EthernetSwitch::Reelect() {
  const uint64_t old_root = root_id_;
  const PortNum old_root_port = root_port_;

  // Root-port election over valid stored BPDUs.
  root_id_ = bridge_id_;
  root_cost_ = 0;
  root_port_ = 0;
  BpduPayload best_offer;
  bool have_offer = false;
  for (PortNum p = 1; p <= num_ports_; ++p) {
    const PortInfo& port = ports_[p];
    if (!port.has_bpdu || !PortWiredAndUp(p)) {
      continue;
    }
    if (port.best.root_id >= bridge_id_) {
      continue;  // our own ID beats that offer
    }
    if (!have_offer || Better(port.best, best_offer)) {
      best_offer = port.best;
      have_offer = true;
      root_port_ = p;
    }
  }
  if (have_offer) {
    root_id_ = best_offer.root_id;
    root_cost_ = best_offer.cost + 1;
  }

  // Role assignment and state transitions.
  bool any_change = (root_id_ != old_root) || (root_port_ != old_root_port);
  for (PortNum p = 1; p <= num_ports_; ++p) {
    PortInfo& port = ports_[p];
    PortRole new_role;
    if (p == root_port_ && root_port_ != 0) {
      new_role = PortRole::kRoot;
    } else if (!port.has_bpdu) {
      new_role = PortRole::kDesignated;  // edge or silent port: we speak for it
    } else {
      BpduPayload ours;
      ours.root_id = root_id_;
      ours.cost = root_cost_;
      ours.sender_id = bridge_id_;
      ours.sender_port = p;
      new_role = Better(ours, port.best) ? PortRole::kDesignated : PortRole::kBlockedRole;
    }
    if (new_role != port.role) {
      port.role = new_role;
      any_change = true;
    }
    AdvancePort(p, new_role == PortRole::kBlockedRole ? PortState::kBlocked
                                                      : PortState::kForwarding);
  }

  if (any_change && sim_->Now() - last_tc_flood_ > kTcSuppression) {
    last_tc_flood_ = sim_->Now();
    ++stats_.topology_changes;
    FlushMacTable();
    FloodTopologyChange(0);
  }
}

void EthernetSwitch::AdvancePort(PortNum p, PortState target) {
  PortInfo& port = ports_[p];
  if (target == port.fsm_target &&
      (target == port.state || target == PortState::kForwarding)) {
    return;  // transition already satisfied or in flight; leave it alone
  }
  port.fsm_target = target;
  uint64_t epoch = ++port.fsm_epoch;
  if (target == PortState::kBlocked) {
    port.state = PortState::kBlocked;  // blocking is immediate
    return;
  }
  if (port.state == PortState::kForwarding) {
    return;  // already there
  }
  // blocked -> learning -> forwarding, one forward_delay per stage.
  if (port.state == PortState::kBlocked) {
    sim_->ScheduleAfter(config_.forward_delay, [this, p, epoch] {
      PortInfo& pi = ports_[p];
      if (pi.fsm_epoch != epoch || pi.role == PortRole::kBlockedRole) {
        return;
      }
      pi.state = PortState::kLearning;
      sim_->ScheduleAfter(config_.forward_delay, [this, p, epoch] {
        PortInfo& pj = ports_[p];
        if (pj.fsm_epoch != epoch || pj.role == PortRole::kBlockedRole) {
          return;
        }
        pj.state = PortState::kForwarding;
      });
    });
  } else if (port.state == PortState::kLearning) {
    sim_->ScheduleAfter(config_.forward_delay, [this, p, epoch] {
      PortInfo& pi = ports_[p];
      if (pi.fsm_epoch != epoch || pi.role == PortRole::kBlockedRole) {
        return;
      }
      pi.state = PortState::kForwarding;
    });
  }
}

void EthernetSwitch::HandlePortChange(PortNum port, bool up) {
  if (!config_.run_stp) {
    return;
  }
  if (!up) {
    // Link-down shortcut: the stored info on that port is dead, re-elect now.
    ports_[port].has_bpdu = false;
    ports_[port].state = PortState::kBlocked;
    ++ports_[port].fsm_epoch;
    Reelect();
  } else {
    // Fresh link starts blocked and earns its way up via BPDUs.
    ports_[port].state = PortState::kBlocked;
    ++ports_[port].fsm_epoch;
    Reelect();
  }
}

void EthernetSwitch::FlushMacTable() {
  ++stats_.mac_flushes;
  mac_table_.clear();
}

void EthernetSwitch::FloodTopologyChange(PortNum skip) {
  for (PortNum p = 1; p <= num_ports_; ++p) {
    if (p == skip || !PortWiredAndUp(p)) {
      continue;
    }
    if (ports_[p].state == PortState::kBlocked) {
      continue;
    }
    SendBpdu(p, true);
  }
}

void EthernetSwitch::HandleDataFrame(const Packet& pkt, PortNum in_port) {
  PortInfo& port = ports_[in_port];
  if (port.state == PortState::kBlocked) {
    ++stats_.dropped_blocked;
    return;
  }
  // Learn the source (learning and forwarding states both learn).
  mac_table_[pkt.eth.src_mac] = {in_port, sim_->Now()};
  if (port.state == PortState::kLearning) {
    ++stats_.dropped_blocked;
    return;
  }

  auto forward = [this, &pkt](PortNum out) {
    sim_->ScheduleAfter(config_.forwarding_delay,
                        [this, out, pkt] { net_->SendFromSwitch(index_, out, pkt); });
  };

  if (pkt.eth.dst_mac != kBroadcastMac) {
    auto it = mac_table_.find(pkt.eth.dst_mac);
    if (it != mac_table_.end() && sim_->Now() - it->second.second < config_.mac_age_time) {
      PortNum out = it->second.first;
      if (out != in_port && ports_[out].state == PortState::kForwarding &&
          PortWiredAndUp(out)) {
        ++stats_.forwarded;
        forward(out);
        return;
      }
    }
  }
  // Unknown unicast or broadcast: flood on forwarding ports.
  ++stats_.flooded;
  for (PortNum p = 1; p <= num_ports_; ++p) {
    if (p == in_port || ports_[p].state != PortState::kForwarding || !PortWiredAndUp(p)) {
      continue;
    }
    forward(p);
  }
}

// ---------------------------------------------------------------------------------

EthernetHost::EthernetHost(Network* net, uint32_t host_index)
    : net_(net), host_index_(host_index), mac_(net->topo().host_at(host_index).mac) {
  net->RegisterHostNode(host_index, this);
}

void EthernetHost::SendFrame(uint64_t dst_mac, DataPayload payload) {
  Packet pkt = MakeEthernetPacket(mac_, dst_mac, kEtherTypeIpv4, std::move(payload));
  net_->SendFromHost(host_index_, pkt);
}

void EthernetHost::HandlePacket(const Packet& pkt, PortNum in_port) {
  (void)in_port;
  if (pkt.eth.ether_type != kEtherTypeIpv4) {
    return;  // hosts ignore BPDUs
  }
  if (pkt.eth.dst_mac != mac_ && pkt.eth.dst_mac != kBroadcastMac) {
    return;  // flooded frame for someone else
  }
  if (const auto* data = pkt.As<DataPayload>(); data != nullptr && handler_) {
    handler_(pkt, *data);
  }
}

}  // namespace dumbnet
