#include "src/routing/topo_db.h"

#include <algorithm>

#include "src/analysis/audit.h"
#include "src/routing/tags.h"

namespace dumbnet {
namespace {

bool MacLess(const HostLocation& a, const HostLocation& b) { return a.mac < b.mac; }

}  // namespace

bool TopoDb::Structure::operator==(const Structure& other) const {
  return index_to_uid == other.index_to_uid && mirror.SameContent(other.mirror);
}

uint64_t TopoDb::Structure::ContentHash() const {
  // FNV-1a over what a mirror's content varies in: uids, port counts, links.
  uint64_t h = 0xcbf29ce484222325ULL;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (uint32_t i = 0; i < index_to_uid.size(); ++i) {
    mix(index_to_uid[i]);
    mix(mirror.switch_at(i).num_ports);
  }
  for (LinkIndex li = 0; li < mirror.link_count(); ++li) {
    const Link& l = mirror.link_at(li);
    mix((static_cast<uint64_t>(l.a.node.index) << 8) | l.a.port);
    mix((static_cast<uint64_t>(l.b.node.index) << 8) | l.b.port);
    mix((l.up ? 1U : 0U) | (l.detached ? 2U : 0U));
  }
  return h;
}

const TopoDb::SharedStructure& TopoDb::EmptyStructure() {
  // Shared by every db until its first mutation, which copies it.
  static const SharedStructure empty = std::make_shared<Structure>();
  return empty;
}

TopoDb::Structure& TopoDb::Mutable() {
  if (structure_.use_count() > 1) {
    structure_ = std::make_shared<Structure>(*structure_);
  }
  // Every structure is made non-const (make_shared<Structure>), and this db is
  // its only owner now.
  auto& own = const_cast<Structure&>(*structure_);
  ++own.edits;
  return own;
}

uint32_t TopoDb::EnsureSwitch(uint64_t uid) {
  auto it = structure_->uid_to_index.find(uid);
  if (it != structure_->uid_to_index.end()) {
    return it->second;
  }
  Structure& s = Mutable();
  uint32_t index = s.mirror.AddSwitch(0);
  s.uid_to_index.emplace(uid, index);
  s.index_to_uid.push_back(uid);
  ++version_;
  return index;
}

Result<LinkIndex> TopoDb::FindLinkAt(uint64_t uid, PortNum port) const {
  auto idx = IndexOf(uid);
  if (!idx.ok()) {
    return idx.error();
  }
  LinkIndex li = mirror().LinkAtPort(idx.value(), port);
  if (li == kInvalidLink) {
    return Error(ErrorCode::kNotFound, "no link recorded at that port");
  }
  return li;
}

Status TopoDb::CheckLink(const WireLink& link) {
  if (link.port_a == 0 || link.port_b == 0 || link.port_a > kMaxPorts ||
      link.port_b > kMaxPorts) {
    return Error(ErrorCode::kOutOfRange, "link port outside 1..254");
  }
  if (link.uid_a == link.uid_b) {
    return Error(ErrorCode::kInvalidArgument, "link joins a switch to itself");
  }
  return Status::Ok();
}

Status TopoDb::AddLink(const WireLink& link, bool revive) {
  if (Status valid = CheckLink(link); !valid.ok()) {
    return valid;
  }
  // Lookups read the structure as it is; Mutable() is called only where a line
  // edits it, so a call that changes nothing never copies a shared structure.
  uint32_t a = EnsureSwitch(link.uid_a);
  uint32_t b = EnsureSwitch(link.uid_b);

  // Idempotence / rewiring: if either port already has a link, keep it when it is
  // the same link, detach it when the wiring changed.
  for (const auto& [sw, port] : {std::pair{a, link.port_a}, std::pair{b, link.port_b}}) {
    LinkIndex existing = mirror().LinkAtPort(sw, port);
    if (existing == kInvalidLink) {
      continue;
    }
    const Link& l = mirror().link_at(existing);
    const Endpoint& self = l.Side(NodeId::Switch(sw));
    const Endpoint& peer = l.Peer(NodeId::Switch(sw));
    bool same = self.port == port && peer.node.is_switch() &&
                ((sw == a && peer.node.index == b && peer.port == link.port_b) ||
                 (sw == b && peer.node.index == a && peer.port == link.port_a));
    if (same) {
      if (revive && !l.up) {
        // Already known; make sure it is marked up again. No-op revives of an
        // already-up link must not bump the version: during bring-up, gossip
        // and patches re-add live links constantly, and every spurious bump
        // invalidates the routing-graph caches keyed on it.
        Mutable().mirror.SetLinkUp(existing, true);
        ++version_;
      }
      return Status::Ok();
    }
    Mutable().mirror.DetachLink(existing);
    ++version_;
  }
  Topology& mirror = Mutable().mirror;
  mirror.GrowPorts(a, link.port_a);
  mirror.GrowPorts(b, link.port_b);
  auto r = mirror.ConnectSwitches(a, link.port_a, b, link.port_b);
  // Both ports are in range and free, and the ends differ.
  DUMBNET_ASSERT(r.ok(), "a checked link failed to connect");
  ++version_;
  return Status::Ok();
}

void TopoDb::SetLinkState(uint64_t uid, PortNum port, bool up) {
  auto li = FindLinkAt(uid, port);
  if (li.ok() && mirror().link_at(li.value()).up != up) {
    Mutable().mirror.SetLinkUp(li.value(), up);
    ++version_;
  }
}

void TopoDb::UpsertHost(const HostLocation& loc) {
  // Host moves do not touch the mirror, so they leave version() alone: every
  // cache keyed on it derives from the switch graph only, and host locations
  // are looked up fresh on each use.
  const HostLocation* base = FindInBase(loc.mac);
  if (base != nullptr && *base == loc) {
    hosts_.erase(loc.mac);  // the base already says this; keep the overlay small
    return;
  }
  hosts_[loc.mac] = loc;
}

void TopoDb::UpsertHosts(SharedDirectory directory) {
  if (directory == nullptr) {
    return;
  }
  // Hosts only the old base knew stay known: they move to the overlay (unless
  // it already has them). Both are sorted, so one merge walk suffices.
  if (base_hosts_ != nullptr && base_hosts_ != directory) {
    auto next = directory->begin();
    for (const HostLocation& old : *base_hosts_) {
      while (next != directory->end() && next->mac < old.mac) {
        ++next;
      }
      if (next == directory->end() || next->mac != old.mac) {
        hosts_.emplace(old.mac, old);
      }
    }
  }
  base_hosts_ = std::move(directory);
  // The directory overwrites whatever the overlay said about its hosts.
  std::erase_if(hosts_, [this](const auto& entry) {
    return FindInBase(entry.first) != nullptr;
  });
}

Status TopoDb::MergePathGraph(const WirePathGraph& graph) {
  // Every way AddLink can fail is checked first, so the merge below either
  // runs to the end or never starts.
  for (const WireLink& l : graph.links) {
    if (Status valid = CheckLink(l); !valid.ok()) {
      return valid;
    }
  }
  for (const WireLink& l : graph.links) {
    (void)AddLink(l, /*revive=*/false);
  }
  // Endpoints appear even if the graph had no links (single-switch case).
  EnsureSwitch(graph.src_uid);
  EnsureSwitch(graph.dst_uid);
  return Status::Ok();
}

Result<uint32_t> TopoDb::IndexOf(uint64_t uid) const {
  auto it = structure_->uid_to_index.find(uid);
  if (it == structure_->uid_to_index.end()) {
    return Error(ErrorCode::kNotFound, "unknown switch uid " + std::to_string(uid));
  }
  return it->second;
}

Result<HostLocation> TopoDb::LocateHost(uint64_t mac) const {
  if (auto it = hosts_.find(mac); it != hosts_.end()) {
    return it->second;
  }
  if (const HostLocation* base = FindInBase(mac)) {
    return *base;
  }
  return Error(ErrorCode::kNotFound, "unknown host mac " + std::to_string(mac));
}

std::vector<HostLocation> TopoDb::Directory() const {
  std::vector<HostLocation> overlay;
  overlay.reserve(hosts_.size());
  for (const auto& [mac, loc] : hosts_) {
    overlay.push_back(loc);
  }
  std::sort(overlay.begin(), overlay.end(), MacLess);
  if (base_hosts_ == nullptr) {
    return overlay;
  }
  // Merge the two sorted runs; on a shared MAC the overlay entry wins.
  std::vector<HostLocation> out;
  out.reserve(base_hosts_->size() + overlay.size());
  auto o = overlay.begin();
  for (const HostLocation& b : *base_hosts_) {
    while (o != overlay.end() && o->mac < b.mac) {
      out.push_back(*o++);
    }
    if (o != overlay.end() && o->mac == b.mac) {
      out.push_back(*o++);
    } else {
      out.push_back(b);
    }
  }
  out.insert(out.end(), o, overlay.end());
  return out;
}

size_t TopoDb::host_count() const {
  size_t count = base_hosts_ != nullptr ? base_hosts_->size() : 0;
  for (const auto& [mac, loc] : hosts_) {
    if (FindInBase(mac) == nullptr) {
      ++count;
    }
  }
  return count;
}

bool TopoDb::HasLink(const WireLink& link) const {
  auto li = FindLinkAt(link.uid_a, link.port_a);
  if (!li.ok()) {
    return false;
  }
  const Link& l = mirror().link_at(li.value());
  auto b = IndexOf(link.uid_b);
  if (!b.ok()) {
    return false;
  }
  const Endpoint& peer = l.Peer(NodeId::Switch(IndexOf(link.uid_a).value()));
  return peer.node.is_switch() && peer.node.index == b.value() && peer.port == link.port_b;
}

Result<WireLink> TopoDb::LinkAt(uint64_t uid, PortNum port) const {
  auto li = FindLinkAt(uid, port);
  if (!li.ok()) {
    return li.error();
  }
  const Link& l = mirror().link_at(li.value());
  return WireLink{UidOf(l.a.node.index), l.a.port, UidOf(l.b.node.index), l.b.port};
}

std::vector<uint64_t> TopoDb::PathToUids(const std::vector<uint32_t>& path) const {
  std::vector<uint64_t> out;
  out.reserve(path.size());
  for (uint32_t i : path) {
    out.push_back(UidOf(i));
  }
  return out;
}

Result<std::vector<uint32_t>> TopoDb::PathFromUids(const std::vector<uint64_t>& path) const {
  std::vector<uint32_t> out;
  out.reserve(path.size());
  for (uint64_t uid : path) {
    auto idx = IndexOf(uid);
    if (!idx.ok()) {
      return idx.error();
    }
    out.push_back(idx.value());
  }
  return out;
}

Result<std::vector<PortNum>> TopoDb::CompileTagsForUidPath(const std::vector<uint64_t>& path,
                                                           PortNum final_port) const {
  auto indices = PathFromUids(path);
  if (!indices.ok()) {
    return indices.error();
  }
  auto tags = CompileSwitchTags(mirror(), indices.value());
  if (!tags.ok()) {
    return tags.error();
  }
  std::vector<PortNum> out = std::move(tags.value());
  out.push_back(final_port);
  return out;
}

}  // namespace dumbnet
