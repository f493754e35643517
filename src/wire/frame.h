// Wire frame format: how DumbNet packets travel over real sockets.
//
// Every frame is a fixed 8-byte header followed by a length-prefixed body:
//
//   offset  size  field
//   0       2     magic 0x444E ("DN", little-endian on the wire)
//   2       1     version (kFrameVersion)
//   3       1     frame type (FrameType)
//   4       4     body length in bytes (little-endian u32, <= kMaxFrameBody)
//   8       n     body
//
// Four frame types ride a link: kHello / kHelloAck carry the link handshake
// (which physical link of the shared topology this socket realizes), kHeartbeat
// is an empty keepalive that feeds the peer's idle-timeout clock, and kPacket
// carries one serialized dumbnet::Packet — Ethernet header, tag stack, the full
// Payload variant, plus the sent_time / pkt_id / provenance sidecar fields the
// simulator normally passes by value.
//
// All integers are little-endian. Decoding is strict: unknown frame types,
// short bodies, trailing bytes, and absurd counts are kMalformed errors, and
// FrameDecoder turns any header corruption into a connection-fatal error (a
// byte stream that lost sync cannot be trusted again).
#ifndef DUMBNET_SRC_WIRE_FRAME_H_
#define DUMBNET_SRC_WIRE_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/net/packet.h"
#include "src/util/result.h"

namespace dumbnet {
namespace wire {

constexpr uint16_t kFrameMagic = 0x444E;  // "DN"
// 2 since path responses carry links only: a version-1 peer would misparse them.
constexpr uint8_t kFrameVersion = 2;
constexpr size_t kFrameHeaderBytes = 8;
// A path response carrying a dense path graph for a large fabric is the biggest
// legitimate body by far; 8 MB leaves two orders of magnitude of headroom while
// still rejecting a desynced length field before it allocates anything silly.
constexpr uint32_t kMaxFrameBody = 8u * 1024 * 1024;

enum class FrameType : uint8_t {
  kHello = 1,
  kHelloAck = 2,
  kHeartbeat = 3,
  kPacket = 4,
};

// ---------------------------------------------------------------------------------
// Bounded little-endian readers/writers shared by the codec (and reusable by
// tests to build corrupt inputs).

class ByteWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Bytes(const void* data, size_t len);

  size_t size() const { return buf_.size(); }
  std::string Take() { return std::move(buf_); }

 private:
  std::string buf_;
};

// Reads from a borrowed buffer. Any out-of-bounds read latches ok() == false and
// returns zeros; callers check once at the end instead of after every field.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  uint64_t U64();
  int64_t I64() { return static_cast<int64_t>(U64()); }

  bool ok() const { return ok_; }
  bool AtEnd() const { return pos_ == data_.size(); }
  size_t remaining() const { return data_.size() - pos_; }

 private:
  std::string_view data_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------------
// Frame encoding

// Wraps a finished body in the 8-byte header.
std::string EncodeFrame(FrameType type, std::string_view body);

// Per-link handshake: the dialer announces which link of the shared topology
// this socket realizes and who it is; the acceptor echoes the link back.
struct HelloBody {
  uint32_t link_index = 0;
  bool from_switch = false;
  uint32_t node_index = 0;  // sender's switch/host index in the shared topology
  uint8_t port = 0;         // sender-side port the link plugs into

  bool operator==(const HelloBody&) const = default;
};

std::string EncodeHelloFrame(FrameType type, const HelloBody& hello);
Result<HelloBody> DecodeHelloBody(std::string_view body);

// Full Packet round-trip, covering every Payload alternative plus the
// sent_time / pkt_id / provenance sidecars.
std::string EncodePacketFrame(const Packet& pkt);
Result<Packet> DecodePacketBody(std::string_view body);

// ---------------------------------------------------------------------------------
// Incremental decoder: feed arbitrary byte slices (however recv() split them),
// pull complete frames out. One header-level violation (bad magic/version/type,
// oversized length) poisons the decoder permanently — the caller must drop the
// connection.

struct Frame {
  FrameType type = FrameType::kHeartbeat;
  std::string body;
};

class FrameDecoder {
 public:
  enum class Status {
    kFrame,     // *out filled with one complete frame
    kNeedMore,  // no complete frame buffered yet
    kError,     // stream is poisoned; see error()
  };

  void Feed(const char* data, size_t len);
  Status Next(Frame* out);

  bool failed() const { return failed_; }
  const std::string& error() const { return error_; }
  size_t buffered_bytes() const { return buf_.size() - pos_; }

 private:
  Status Poison(std::string reason);

  std::string buf_;
  size_t pos_ = 0;  // consumed prefix, compacted once it dominates
  bool failed_ = false;
  std::string error_;
};

}  // namespace wire
}  // namespace dumbnet

#endif  // DUMBNET_SRC_WIRE_FRAME_H_
