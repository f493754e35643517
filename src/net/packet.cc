#include "src/net/packet.h"

#include <sstream>

namespace dumbnet {
namespace {

// Nominal payload sizes: control messages are charged their rough encoded size so
// discovery/notification traffic consumes realistic bandwidth.
struct PayloadSizeVisitor {
  int64_t operator()(const DataPayload& p) const { return p.bytes; }
  int64_t operator()(const ProbePayload& p) const {
    return 16 + static_cast<int64_t>(p.forward_path.size());
  }
  int64_t operator()(const ProbeReplyPayload&) const { return 16; }
  int64_t operator()(const IdReplyPayload&) const { return 16; }
  int64_t operator()(const PortEventPayload&) const { return 20; }
  int64_t operator()(const PathRequestPayload&) const { return 16; }
  int64_t operator()(const PathResponsePayload& p) const {
    int64_t n = 24;
    if (p.graph != nullptr) {
      n += static_cast<int64_t>(p.graph->links.size()) * 18;
    }
    return n;
  }
  int64_t operator()(const BootstrapPayload& p) const {
    if (p.info == nullptr) {
      return 32;
    }
    int64_t n = 32 + static_cast<int64_t>(p.info->path_to_controller.size());
    if (p.info->directory != nullptr) {
      n += static_cast<int64_t>(p.info->directory->size()) * 17;
    }
    return n;
  }
  int64_t operator()(const LinkEventPayload&) const { return 28; }
  int64_t operator()(const TopologyPatchPayload& p) const {
    int64_t n = 16;
    if (p.removed != nullptr) {
      n += static_cast<int64_t>(p.removed->size()) * 18;
    }
    if (p.added != nullptr) {
      n += static_cast<int64_t>(p.added->size()) * 18;
    }
    return n;
  }
  int64_t operator()(const BpduPayload&) const { return 35; }
};

struct PayloadNameVisitor {
  const char* operator()(const DataPayload& p) const { return p.is_ack ? "ack" : "data"; }
  const char* operator()(const ProbePayload&) const { return "probe"; }
  const char* operator()(const ProbeReplyPayload&) const { return "probe-reply"; }
  const char* operator()(const IdReplyPayload&) const { return "id-reply"; }
  const char* operator()(const PortEventPayload&) const { return "port-event"; }
  const char* operator()(const PathRequestPayload&) const { return "path-request"; }
  const char* operator()(const PathResponsePayload&) const { return "path-response"; }
  const char* operator()(const BootstrapPayload&) const { return "bootstrap"; }
  const char* operator()(const LinkEventPayload&) const { return "link-event"; }
  const char* operator()(const TopologyPatchPayload&) const { return "topo-patch"; }
  const char* operator()(const BpduPayload&) const { return "bpdu"; }
};

}  // namespace

int64_t Packet::WireSize() const {
  return kEthernetHeaderBytes + static_cast<int64_t>(tags.size()) +
         std::visit(PayloadSizeVisitor{}, payload);
}

std::string Packet::Describe() const {
  std::ostringstream os;
  os << std::visit(PayloadNameVisitor{}, payload) << " " << std::hex << eth.src_mac << "->"
     << eth.dst_mac << std::dec;
  if (!tags.empty()) {
    os << " tags=" << TagsToString(TagList(tags.begin(), tags.end() - 1));
  }
  return os.str();
}

void Packet::SetPath(const TagList& path_tags) {
  tags.clear();
  tags.reserve(path_tags.size() + 1);
  tags.insert(tags.end(), path_tags.begin(), path_tags.end());
  tags.push_back(kPathEndTag);
}

Packet MakeDumbNetPacket(uint64_t src_mac, uint64_t dst_mac, const TagList& path_tags,
                         Payload payload) {
  Packet pkt;
  pkt.eth.src_mac = src_mac;
  pkt.eth.dst_mac = dst_mac;
  pkt.eth.ether_type = kEtherTypeDumbNet;
  pkt.SetPath(path_tags);
  pkt.payload = std::move(payload);
  return pkt;
}

Packet MakeEthernetPacket(uint64_t src_mac, uint64_t dst_mac, uint16_t ether_type,
                          Payload payload) {
  Packet pkt;
  pkt.eth.src_mac = src_mac;
  pkt.eth.dst_mac = dst_mac;
  pkt.eth.ether_type = ether_type;
  pkt.payload = std::move(payload);
  return pkt;
}

}  // namespace dumbnet
