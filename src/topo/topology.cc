#include "src/topo/topology.h"

#include <cassert>
#include <deque>

namespace dumbnet {
namespace {

// Switch UIDs and host MACs are synthetic but stable: distinct spaces so a UID can
// never be mistaken for a MAC in tests.
constexpr uint64_t kSwitchUidBase = 0x5100'0000'0000'0000ULL;
constexpr uint64_t kHostMacBase = 0x02'00'00'00'00'00ULL;  // locally administered

}  // namespace

void Topology::SetIdSpace(uint32_t id_space) {
  assert(switches_.empty() && hosts_.empty());
  id_space_ = id_space;
}

uint64_t Topology::switch_uid_base() const {
  return kSwitchUidBase + (static_cast<uint64_t>(id_space_) << 24);
}

uint64_t Topology::host_mac_base() const {
  return kHostMacBase + (static_cast<uint64_t>(id_space_) << 24);
}

std::string NodeId::ToString() const {
  return (is_switch() ? "S" : "H") + std::to_string(index);
}

std::string Endpoint::ToString() const {
  return node.ToString() + "-" + std::to_string(static_cast<int>(port));
}

uint32_t Topology::AddSwitch(uint8_t num_ports) {
  SwitchInfo info;
  info.uid = switch_uid_base() + switches_.size();
  info.num_ports = num_ports;
  info.port_link.assign(static_cast<size_t>(num_ports) + 1, kInvalidLink);
  switches_.push_back(std::move(info));
  return static_cast<uint32_t>(switches_.size() - 1);
}

void Topology::GrowPorts(uint32_t sw, PortNum num_ports) {
  SwitchInfo& info = switches_[sw];
  if (num_ports > info.num_ports) {
    info.num_ports = num_ports;
    info.port_link.resize(static_cast<size_t>(num_ports) + 1, kInvalidLink);
  }
}

uint32_t Topology::AddHost() {
  HostInfo info;
  info.mac = host_mac_base() + hosts_.size();
  hosts_.push_back(info);
  return static_cast<uint32_t>(hosts_.size() - 1);
}

Result<LinkIndex> Topology::Connect(Endpoint a, Endpoint b, double bandwidth_gbps,
                                    int64_t propagation_ns) {
  if (a.node == b.node) {
    return Error(ErrorCode::kInvalidArgument, "self-link at " + a.ToString());
  }
  for (const Endpoint& e : {a, b}) {
    if (e.node.is_switch()) {
      if (e.node.index >= switches_.size()) {
        return Error(ErrorCode::kOutOfRange, "no such switch " + e.ToString());
      }
      const SwitchInfo& sw = switches_[e.node.index];
      if (e.port < 1 || e.port > sw.num_ports) {
        return Error(ErrorCode::kOutOfRange, "bad port " + e.ToString());
      }
      if (sw.port_link[e.port] != kInvalidLink) {
        return Error(ErrorCode::kAlreadyExists, "port in use " + e.ToString());
      }
    } else {
      if (e.node.index >= hosts_.size()) {
        return Error(ErrorCode::kOutOfRange, "no such host " + e.ToString());
      }
      if (hosts_[e.node.index].link != kInvalidLink) {
        return Error(ErrorCode::kAlreadyExists, "host already attached " + e.ToString());
      }
    }
  }

  Link link;
  link.a = a;
  link.b = b;
  link.bandwidth_gbps = bandwidth_gbps;
  link.propagation_ns = propagation_ns;
  links_.push_back(link);
  LinkIndex idx = static_cast<LinkIndex>(links_.size() - 1);

  for (const Endpoint& e : {a, b}) {
    if (e.node.is_switch()) {
      switches_[e.node.index].port_link[e.port] = idx;
    } else {
      hosts_[e.node.index].link = idx;
    }
  }
  return idx;
}

Result<LinkIndex> Topology::ConnectSwitches(uint32_t sw_a, PortNum port_a, uint32_t sw_b,
                                            PortNum port_b, double bandwidth_gbps) {
  return Connect(Endpoint{NodeId::Switch(sw_a), port_a}, Endpoint{NodeId::Switch(sw_b), port_b},
                 bandwidth_gbps);
}

Result<LinkIndex> Topology::AttachHost(uint32_t host, uint32_t sw, PortNum port,
                                       double bandwidth_gbps) {
  return Connect(Endpoint{NodeId::Host(host), 1}, Endpoint{NodeId::Switch(sw), port},
                 bandwidth_gbps);
}

LinkIndex Topology::LinkAtPort(uint32_t sw, PortNum port) const {
  if (sw >= switches_.size()) {
    return kInvalidLink;
  }
  const SwitchInfo& info = switches_[sw];
  if (port < 1 || port > info.num_ports) {
    return kInvalidLink;
  }
  return info.port_link[port];
}

Result<Endpoint> Topology::PeerOf(uint32_t sw, PortNum port) const {
  LinkIndex li = LinkAtPort(sw, port);
  if (li == kInvalidLink) {
    return Error(ErrorCode::kNotFound,
                 "nothing at S" + std::to_string(sw) + "-" + std::to_string(port));
  }
  return links_[li].Peer(NodeId::Switch(sw));
}

Result<Endpoint> Topology::HostUplink(uint32_t host) const {
  if (host >= hosts_.size()) {
    return Error(ErrorCode::kOutOfRange, "no such host H" + std::to_string(host));
  }
  LinkIndex li = hosts_[host].link;
  if (li == kInvalidLink) {
    return Error(ErrorCode::kNotFound, "host H" + std::to_string(host) + " not attached");
  }
  return links_[li].Peer(NodeId::Host(host));
}

Result<uint32_t> Topology::SwitchByUid(uint64_t uid) const {
  // UIDs are assigned densely from the base, so this is O(1).
  if (uid >= switch_uid_base() && uid < switch_uid_base() + switches_.size()) {
    return static_cast<uint32_t>(uid - switch_uid_base());
  }
  return Error(ErrorCode::kNotFound, "no switch with uid " + std::to_string(uid));
}

Result<uint32_t> Topology::HostByMac(uint64_t mac) const {
  if (mac >= host_mac_base() && mac < host_mac_base() + hosts_.size()) {
    return static_cast<uint32_t>(mac - host_mac_base());
  }
  return Error(ErrorCode::kNotFound, "no host with mac " + std::to_string(mac));
}

size_t Topology::InterSwitchLinkCount() const {
  size_t n = 0;
  for (const Link& l : links_) {
    if (l.a.node.is_switch() && l.b.node.is_switch()) {
      ++n;
    }
  }
  return n;
}

void Topology::SetLinkUp(LinkIndex i, bool up) {
  if (i >= links_.size() || links_[i].up == up) {
    return;
  }
  links_[i].up = up;
  for (const auto& observer : observers_) {
    observer(i, up);
  }
}

void Topology::DetachLink(LinkIndex i) {
  if (i >= links_.size() || links_[i].detached) {
    return;
  }
  Link& l = links_[i];
  l.up = false;
  l.detached = true;
  for (const Endpoint& e : {l.a, l.b}) {
    if (e.node.is_switch()) {
      switches_[e.node.index].port_link[e.port] = kInvalidLink;
    } else {
      hosts_[e.node.index].link = kInvalidLink;
    }
  }
}

Status Topology::Validate() const {
  for (uint32_t s = 0; s < switches_.size(); ++s) {
    const SwitchInfo& sw = switches_[s];
    if (sw.port_link.size() != static_cast<size_t>(sw.num_ports) + 1) {
      return Error(ErrorCode::kInternal, "port map size mismatch on S" + std::to_string(s));
    }
    for (PortNum p = 1; p <= sw.num_ports; ++p) {
      LinkIndex li = sw.port_link[p];
      if (li == kInvalidLink) {
        continue;
      }
      if (li >= links_.size()) {
        return Error(ErrorCode::kInternal, "dangling link index on S" + std::to_string(s));
      }
      const Link& l = links_[li];
      Endpoint self{NodeId::Switch(s), p};
      if (!(l.a == self) && !(l.b == self)) {
        return Error(ErrorCode::kInternal, "port map inconsistent at " + self.ToString());
      }
    }
  }
  for (uint32_t h = 0; h < hosts_.size(); ++h) {
    if (hosts_[h].link == kInvalidLink) {
      return Error(ErrorCode::kInternal, "host H" + std::to_string(h) + " unattached");
    }
    const Link& l = links_[hosts_[h].link];
    NodeId self = NodeId::Host(h);
    if (!(l.a.node == self) && !(l.b.node == self)) {
      return Error(ErrorCode::kInternal, "host link inconsistent H" + std::to_string(h));
    }
  }
  for (LinkIndex i = 0; i < links_.size(); ++i) {
    const Link& l = links_[i];
    if (l.a.node == l.b.node) {
      return Error(ErrorCode::kInternal, "self link " + std::to_string(i));
    }
  }
  return Status::Ok();
}

bool Topology::IsConnected() const {
  if (switches_.empty()) {
    return true;
  }
  std::vector<bool> seen(switches_.size(), false);
  std::deque<uint32_t> q;
  q.push_back(0);
  seen[0] = true;
  size_t count = 1;
  while (!q.empty()) {
    uint32_t s = q.front();
    q.pop_front();
    const SwitchInfo& sw = switches_[s];
    for (PortNum p = 1; p <= sw.num_ports; ++p) {
      LinkIndex li = sw.port_link[p];
      if (li == kInvalidLink || !links_[li].up) {
        continue;
      }
      const Endpoint& peer = links_[li].Peer(NodeId::Switch(s));
      if (peer.node.is_switch() && !seen[peer.node.index]) {
        seen[peer.node.index] = true;
        ++count;
        q.push_back(peer.node.index);
      }
    }
  }
  return count == switches_.size();
}

}  // namespace dumbnet
