#include "src/wire/frame.h"

#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "src/analysis/contracts.h"
#include "src/routing/wire_types.h"
#include "src/telemetry/provenance.h"

namespace dumbnet {
namespace wire {

namespace {

Error Malformed(const std::string& what) {
  return Error(ErrorCode::kMalformed, what);
}

// ---------------------------------------------------------------------------------
// Field helpers: each aggregate gets a Put/Get pair. Counts are validated
// against the reader's remaining bytes before any allocation, so a corrupt
// length can never turn into a multi-gigabyte resize.

void PutTags(ByteWriter& w, const TagList& tags) {
  w.U16(static_cast<uint16_t>(tags.size()));
  if (!tags.empty()) {
    w.Bytes(tags.data(), tags.size());
  }
}

bool GetTags(ByteReader& r, TagList* tags) {
  const size_t n = r.U16();
  if (!r.ok() || r.remaining() < n) {
    return false;
  }
  tags->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*tags)[i] = r.U8();
  }
  return r.ok();
}

void PutUidVec(ByteWriter& w, const std::vector<uint64_t>& uids) {
  w.U32(static_cast<uint32_t>(uids.size()));
  for (uint64_t uid : uids) {
    w.U64(uid);
  }
}

bool GetUidVec(ByteReader& r, std::vector<uint64_t>* uids) {
  const size_t n = r.U32();
  if (!r.ok() || r.remaining() < n * 8) {
    return false;
  }
  uids->resize(n);
  for (size_t i = 0; i < n; ++i) {
    (*uids)[i] = r.U64();
  }
  return r.ok();
}

void PutLocation(ByteWriter& w, const HostLocation& loc) {
  w.U64(loc.mac);
  w.U64(loc.switch_uid);
  w.U8(loc.port);
}

bool GetLocation(ByteReader& r, HostLocation* loc) {
  loc->mac = r.U64();
  loc->switch_uid = r.U64();
  loc->port = r.U8();
  return r.ok();
}

void PutWireLinks(ByteWriter& w, const std::vector<WireLink>& links) {
  w.U32(static_cast<uint32_t>(links.size()));
  for (const WireLink& l : links) {
    w.U64(l.uid_a);
    w.U8(l.port_a);
    w.U64(l.uid_b);
    w.U8(l.port_b);
  }
}

bool GetWireLinks(ByteReader& r, std::vector<WireLink>* links) {
  const size_t n = r.U32();
  if (!r.ok() || r.remaining() < n * 18) {
    return false;
  }
  links->resize(n);
  for (WireLink& l : *links) {
    l.uid_a = r.U64();
    l.port_a = r.U8();
    l.uid_b = r.U64();
    l.port_b = r.U8();
  }
  return r.ok();
}

void PutGraph(ByteWriter& w, const WirePathGraph& g) {
  w.U64(g.src_uid);
  w.U64(g.dst_uid);
  PutWireLinks(w, g.links);
}

bool GetGraph(ByteReader& r, WirePathGraph* g) {
  g->src_uid = r.U64();
  g->dst_uid = r.U64();
  return GetWireLinks(r, &g->links);
}

// ---------------------------------------------------------------------------------
// Payload codec: the on-wire kind byte is the variant's alternative index, so
// adding a payload type is one new case in each switch (and a version bump if
// an old binary must reject it).

void PutPayload(ByteWriter& w, const Payload& payload) {
  w.U8(static_cast<uint8_t>(payload.index()));
  std::visit(
      [&w](const auto& p) {
        using T = std::decay_t<decltype(p)>;
        if constexpr (std::is_same_v<T, DataPayload>) {
          w.U64(p.flow_id);
          w.U64(p.seq);
          w.U64(p.ack);
          w.U8(p.is_ack ? 1 : 0);
          w.I64(p.bytes);
          w.U64(p.inner_dst_mac);
          w.U8(p.ecn ? 1 : 0);
        } else if constexpr (std::is_same_v<T, ProbePayload>) {
          w.U64(p.probe_id);
          w.U64(p.origin_mac);
          PutTags(w, p.forward_path);
        } else if constexpr (std::is_same_v<T, ProbeReplyPayload>) {
          w.U64(p.probe_id);
          w.U64(p.responder_mac);
          PutTags(w, p.reply_path);
          w.U64(p.controller_mac);
        } else if constexpr (std::is_same_v<T, IdReplyPayload>) {
          w.U64(p.probe_id);
          w.U64(p.switch_uid);
        } else if constexpr (std::is_same_v<T, PortEventPayload>) {
          w.U64(p.switch_uid);
          w.U8(p.port);
          w.U8(p.up ? 1 : 0);
          w.U8(p.hops_left);
          w.U64(p.event_seq);
          w.I64(p.origin_time);
        } else if constexpr (std::is_same_v<T, PathRequestPayload>) {
          w.U64(p.requester_mac);
          w.U64(p.dst_mac);
          w.U64(p.attempt);
        } else if constexpr (std::is_same_v<T, PathResponsePayload>) {
          w.U64(p.dst_mac);
          PutLocation(w, p.dst_location);
          w.U8(p.graph != nullptr ? 1 : 0);
          if (p.graph != nullptr) {
            PutGraph(w, *p.graph);
          }
        } else if constexpr (std::is_same_v<T, BootstrapPayload>) {
          static const BootstrapInfo kEmpty;
          const BootstrapInfo& b = p.info != nullptr ? *p.info : kEmpty;
          PutLocation(w, b.self);
          w.U64(b.controller_mac);
          PutLocation(w, b.controller_location);
          PutTags(w, b.path_to_controller);
          w.U8(b.directory != nullptr ? 1 : 0);
          if (b.directory != nullptr) {
            w.U32(static_cast<uint32_t>(b.directory->size()));
            for (const HostLocation& loc : *b.directory) {
              PutLocation(w, loc);
            }
          }
        } else if constexpr (std::is_same_v<T, LinkEventPayload>) {
          w.U64(p.event_id);
          w.U64(p.switch_uid);
          w.U8(p.port);
          w.U8(p.up ? 1 : 0);
          w.I64(p.origin_time);
        } else if constexpr (std::is_same_v<T, TopologyPatchPayload>) {
          w.U64(p.patch_seq);
          PutWireLinks(w, p.removed != nullptr ? *p.removed : std::vector<WireLink>{});
          PutWireLinks(w, p.added != nullptr ? *p.added : std::vector<WireLink>{});
          w.I64(p.origin_time);
        } else if constexpr (std::is_same_v<T, BpduPayload>) {
          w.U64(p.root_id);
          w.U32(p.cost);
          w.U64(p.sender_id);
          w.U8(p.sender_port);
          w.U8(p.topology_change ? 1 : 0);
        }
      },
      payload);
}

bool GetPayload(ByteReader& r, Payload* payload) {
  const uint8_t kind = r.U8();
  if (!r.ok()) {
    return false;
  }
  switch (kind) {
    case 0: {
      DataPayload p;
      p.flow_id = r.U64();
      p.seq = r.U64();
      p.ack = r.U64();
      p.is_ack = r.U8() != 0;
      p.bytes = r.I64();
      p.inner_dst_mac = r.U64();
      p.ecn = r.U8() != 0;
      *payload = p;
      break;
    }
    case 1: {
      ProbePayload p;
      p.probe_id = r.U64();
      p.origin_mac = r.U64();
      if (!GetTags(r, &p.forward_path)) {
        return false;
      }
      *payload = std::move(p);
      break;
    }
    case 2: {
      ProbeReplyPayload p;
      p.probe_id = r.U64();
      p.responder_mac = r.U64();
      if (!GetTags(r, &p.reply_path)) {
        return false;
      }
      p.controller_mac = r.U64();
      *payload = std::move(p);
      break;
    }
    case 3: {
      IdReplyPayload p;
      p.probe_id = r.U64();
      p.switch_uid = r.U64();
      *payload = p;
      break;
    }
    case 4: {
      PortEventPayload p;
      p.switch_uid = r.U64();
      p.port = r.U8();
      p.up = r.U8() != 0;
      p.hops_left = r.U8();
      p.event_seq = r.U64();
      p.origin_time = r.I64();
      *payload = p;
      break;
    }
    case 5: {
      PathRequestPayload p;
      p.requester_mac = r.U64();
      p.dst_mac = r.U64();
      p.attempt = r.U64();
      *payload = p;
      break;
    }
    case 6: {
      PathResponsePayload p;
      p.dst_mac = r.U64();
      if (!GetLocation(r, &p.dst_location)) {
        return false;
      }
      if (r.U8() != 0) {
        auto graph = std::make_shared<WirePathGraph>();
        if (!GetGraph(r, graph.get())) {
          return false;
        }
        p.graph = std::move(graph);
      }
      *payload = std::move(p);
      break;
    }
    case 7: {
      auto p = std::make_shared<BootstrapInfo>();
      if (!GetLocation(r, &p->self)) {
        return false;
      }
      p->controller_mac = r.U64();
      if (!GetLocation(r, &p->controller_location) ||
          !GetTags(r, &p->path_to_controller)) {
        return false;
      }
      if (r.U8() != 0) {
        const size_t n = r.U32();
        if (!r.ok() || r.remaining() < n * 17) {
          return false;
        }
        std::vector<HostLocation> dir(n);
        for (HostLocation& loc : dir) {
          if (!GetLocation(r, &loc)) {
            return false;
          }
        }
        p->directory = std::make_shared<const HostDirectory>(std::move(dir));
      }
      *payload = BootstrapPayload{std::move(p)};
      break;
    }
    case 8: {
      LinkEventPayload p;
      p.event_id = r.U64();
      p.switch_uid = r.U64();
      p.port = r.U8();
      p.up = r.U8() != 0;
      p.origin_time = r.I64();
      *payload = p;
      break;
    }
    case 9: {
      TopologyPatchPayload p;
      p.patch_seq = r.U64();
      auto removed = std::make_shared<std::vector<WireLink>>();
      auto added = std::make_shared<std::vector<WireLink>>();
      if (!GetWireLinks(r, removed.get()) || !GetWireLinks(r, added.get())) {
        return false;
      }
      p.removed = std::move(removed);
      p.added = std::move(added);
      p.origin_time = r.I64();
      *payload = std::move(p);
      break;
    }
    case 10: {
      BpduPayload p;
      p.root_id = r.U64();
      p.cost = r.U32();
      p.sender_id = r.U64();
      p.sender_port = r.U8();
      p.topology_change = r.U8() != 0;
      *payload = p;
      break;
    }
    default:
      return false;
  }
  return r.ok();
}

}  // namespace

// ---------------------------------------------------------------------------------
// ByteWriter / ByteReader

void ByteWriter::U16(uint16_t v) {
  buf_.push_back(static_cast<char>(v & 0xFF));
  buf_.push_back(static_cast<char>((v >> 8) & 0xFF));
}

void ByteWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void ByteWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void ByteWriter::Bytes(const void* data, size_t len) {
  buf_.append(static_cast<const char*>(data), len);
}

uint8_t ByteReader::U8() {
  if (pos_ + 1 > data_.size()) {
    ok_ = false;
    return 0;
  }
  return static_cast<uint8_t>(data_[pos_++]);
}

uint16_t ByteReader::U16() {
  if (pos_ + 2 > data_.size()) {
    ok_ = false;
    return 0;
  }
  uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v = static_cast<uint16_t>(v | static_cast<uint16_t>(
                                      static_cast<uint8_t>(data_[pos_++]) << (8 * i)));
  }
  return v;
}

uint32_t ByteReader::U32() {
  if (pos_ + 4 > data_.size()) {
    ok_ = false;
    return 0;
  }
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

uint64_t ByteReader::U64() {
  if (pos_ + 8 > data_.size()) {
    ok_ = false;
    return 0;
  }
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_++])) << (8 * i);
  }
  return v;
}

// ---------------------------------------------------------------------------------
// Frames

std::string EncodeFrame(FrameType type, std::string_view body) {
  ByteWriter w;
  w.U16(kFrameMagic);
  w.U8(kFrameVersion);
  w.U8(static_cast<uint8_t>(type));
  w.U32(static_cast<uint32_t>(body.size()));
  w.Bytes(body.data(), body.size());
  return w.Take();
}

std::string EncodeHelloFrame(FrameType type, const HelloBody& hello) {
  ByteWriter w;
  w.U32(hello.link_index);
  w.U8(hello.from_switch ? 1 : 0);
  w.U32(hello.node_index);
  w.U8(hello.port);
  return EncodeFrame(type, w.Take());
}

Result<HelloBody> DecodeHelloBody(std::string_view body) {
  ByteReader r(body);
  HelloBody hello;
  hello.link_index = r.U32();
  hello.from_switch = r.U8() != 0;
  hello.node_index = r.U32();
  hello.port = r.U8();
  if (!r.ok() || !r.AtEnd()) {
    return Malformed("bad hello body");
  }
  return hello;
}

std::string EncodePacketFrame(const Packet& pkt) {
  ByteWriter w;
  w.U64(pkt.eth.dst_mac);
  w.U64(pkt.eth.src_mac);
  w.U16(pkt.eth.ether_type);
  PutTags(w, pkt.tags);
  w.I64(pkt.sent_time);
  w.U64(pkt.pkt_id);
  PutUidVec(w, pkt.provenance.promised());
  w.U32(static_cast<uint32_t>(pkt.provenance.hops().size()));
  for (const telemetry::PathHop& hop : pkt.provenance.hops()) {
    w.U64(hop.switch_uid);
    w.U8(hop.ingress);
    w.U8(hop.egress);
  }
  PutPayload(w, pkt.payload);
  return EncodeFrame(FrameType::kPacket, w.Take());
}

Result<Packet> DecodePacketBody(std::string_view body) {
  ByteReader r(body);
  Packet pkt;
  pkt.eth.dst_mac = r.U64();
  pkt.eth.src_mac = r.U64();
  pkt.eth.ether_type = r.U16();
  if (!GetTags(r, &pkt.tags)) {
    return Malformed("bad packet tags");
  }
  pkt.sent_time = r.I64();
  pkt.pkt_id = r.U64();
  std::vector<uint64_t> promised;
  if (!GetUidVec(r, &promised)) {
    return Malformed("bad packet provenance promise");
  }
  const size_t n_hops = r.U32();
  if (!r.ok() || r.remaining() < n_hops * 10) {
    return Malformed("bad packet provenance hops");
  }
  std::vector<telemetry::PathHop> hops(n_hops);
  for (telemetry::PathHop& hop : hops) {
    hop.switch_uid = r.U64();
    hop.ingress = r.U8();
    hop.egress = r.U8();
  }
  pkt.provenance.Assign(std::move(promised), std::move(hops));
  if (!GetPayload(r, &pkt.payload)) {
    return Malformed("bad packet payload");
  }
  if (!r.ok() || !r.AtEnd()) {
    return Malformed("packet body has trailing bytes");
  }
  return pkt;
}

// ---------------------------------------------------------------------------------
// FrameDecoder

void FrameDecoder::Feed(const char* data, size_t len) {
  if (failed_) {
    return;  // poisoned streams eat input silently; the caller is tearing down
  }
  buf_.append(data, len);
}

FrameDecoder::Status FrameDecoder::Poison(std::string reason) {
  failed_ = true;
  error_ = std::move(reason);
  buf_.clear();
  pos_ = 0;
  return Status::kError;
}

FrameDecoder::Status FrameDecoder::Next(Frame* out) {
  // Runs once per frame on the reactor thread: header parse, validation, and
  // the copy-out into the caller's *reused* frame must not allocate in steady
  // state (the caller keeps one Frame per connection so body capacity
  // amortizes). Poison paths build an error string and are declared cold.
  DN_HOT_SCOPE("wire.frame_decode");
  if (failed_) {
    return Status::kError;
  }
  const size_t avail = buf_.size() - pos_;
  if (avail < kFrameHeaderBytes) {
    return Status::kNeedMore;
  }
  ByteReader r(std::string_view(buf_).substr(pos_, kFrameHeaderBytes));
  const uint16_t magic = r.U16();
  const uint8_t version = r.U8();
  const uint8_t type = r.U8();
  const uint32_t body_len = r.U32();
  if (magic != kFrameMagic) {
    DN_HOT_EXEMPT("poison path: error string allocates, stream is tearing down");
    return Poison("bad frame magic");
  }
  if (version != kFrameVersion) {
    DN_HOT_EXEMPT("poison path: error string allocates, stream is tearing down");
    return Poison("unsupported frame version");
  }
  if (type < static_cast<uint8_t>(FrameType::kHello) ||
      type > static_cast<uint8_t>(FrameType::kPacket)) {
    DN_HOT_EXEMPT("poison path: error string allocates, stream is tearing down");
    return Poison("unknown frame type");
  }
  if (body_len > kMaxFrameBody) {
    DN_HOT_EXEMPT("poison path: error string allocates, stream is tearing down");
    return Poison("oversized frame body");
  }
  if (avail < kFrameHeaderBytes + body_len) {
    return Status::kNeedMore;
  }
  out->type = static_cast<FrameType>(type);
  {
    // First frame bigger than any before it grows the reused buffer; after
    // that the assign reuses capacity and this block allocates nothing.
    DN_HOT_EXEMPT("body copy-out: amortized growth of the caller's reused frame");
    out->body.assign(buf_, pos_ + kFrameHeaderBytes, body_len);
  }
  pos_ += kFrameHeaderBytes + body_len;
  // Compact once the consumed prefix dominates, so long-lived connections never
  // accumulate an unbounded retired prefix.
  if (pos_ >= 4096 && pos_ * 2 >= buf_.size()) {
    buf_.erase(0, pos_);
    pos_ = 0;
  }
  return Status::kFrame;
}

}  // namespace wire
}  // namespace dumbnet
