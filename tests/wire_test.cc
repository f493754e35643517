// Tests of the wire runtime (src/wire): the frame codec every socket speaks,
// the incremental FrameDecoder that reassembles frames from arbitrary recv()
// splits, and one end-to-end boot of a real UDS fabric.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "src/net/packet.h"
#include "src/routing/topo_db.h"
#include "src/routing/wire_types.h"
#include "src/wire/frame.h"
#include "src/wire/runtime.h"

namespace dumbnet {
namespace wire {
namespace {

// One representative Packet per Payload alternative, every field non-default
// where practical, so a lossless round-trip is actually exercised.
std::vector<Packet> SamplePackets() {
  std::vector<Packet> out;

  DataPayload data;
  data.flow_id = 7;
  data.seq = 9;
  data.ack = 3;
  data.is_ack = true;
  data.bytes = 777;
  data.inner_dst_mac = 0xAABB;
  data.ecn = true;
  out.push_back(MakeDumbNetPacket(0x101, 0x202, {1, 2, 3}, data));

  ProbePayload probe;
  probe.probe_id = 42;
  probe.origin_mac = 0x303;
  probe.forward_path = {4, 5, kPathEndTag};
  out.push_back(MakeDumbNetPacket(0x303, kBroadcastMac, {4, 5}, probe));

  ProbeReplyPayload reply;
  reply.probe_id = 42;
  reply.responder_mac = 0x404;
  reply.reply_path = {6, kPathEndTag};
  reply.controller_mac = 0x505;
  out.push_back(MakeDumbNetPacket(0x404, 0x303, {6}, reply));

  IdReplyPayload id_reply;
  id_reply.probe_id = 43;
  id_reply.switch_uid = 0xDEADBEEF;
  out.push_back(MakeDumbNetPacket(0x505, 0x303, {0}, id_reply));

  PortEventPayload port_ev;
  port_ev.switch_uid = 0xFEED;
  port_ev.port = 3;
  port_ev.up = true;
  port_ev.hops_left = 2;
  port_ev.event_seq = 11;
  port_ev.origin_time = 123456789;
  out.push_back(MakeEthernetPacket(0x606, kBroadcastMac, kEtherTypeDumbNet, port_ev));

  PathRequestPayload path_req;
  path_req.requester_mac = 0x707;
  path_req.dst_mac = 0x808;
  path_req.attempt = 5;
  out.push_back(MakeDumbNetPacket(0x707, 0x111, {7, 8}, path_req));

  PathResponsePayload path_resp;
  path_resp.dst_mac = 0x808;
  path_resp.dst_location = HostLocation{0x808, 0xFACE, 4};
  auto graph = std::make_shared<WirePathGraph>();
  graph->src_uid = 0xFACE;
  graph->dst_uid = 0xCAFE;
  graph->links = {{0xFACE, 1, 0xBEAD, 2}, {0xBEAD, 3, 0xCAFE, 4}};
  path_resp.graph = graph;
  out.push_back(MakeDumbNetPacket(0x111, 0x707, {1}, path_resp));

  auto boot = std::make_shared<BootstrapInfo>();
  boot->self = HostLocation{0x909, 0xFACE, 5};
  boot->controller_mac = 0x111;
  boot->controller_location = HostLocation{0x111, 0xCAFE, 6};
  boot->path_to_controller = {2, 3, kPathEndTag};
  boot->directory = std::make_shared<const HostDirectory>(
      std::vector<HostLocation>{{0x909, 0xFACE, 5}, {0x111, 0xCAFE, 6}});
  out.push_back(MakeDumbNetPacket(0x111, 0x909, {2, 3}, BootstrapPayload{boot}));

  LinkEventPayload link_ev;
  link_ev.event_id = 0xE11E;
  link_ev.switch_uid = 0xFEED;
  link_ev.port = 7;
  link_ev.up = false;
  link_ev.origin_time = 987654321;
  out.push_back(MakeDumbNetPacket(0x909, 0x101, {9}, link_ev));

  TopologyPatchPayload patch;
  patch.patch_seq = 17;
  patch.removed = std::make_shared<std::vector<WireLink>>(
      std::vector<WireLink>{{0xFACE, 1, 0xBEAD, 2}});
  patch.added = std::make_shared<std::vector<WireLink>>(
      std::vector<WireLink>{{0xFACE, 1, 0xCAFE, 3}, {0xCAFE, 4, 0xBEAD, 2}});
  patch.origin_time = 555;
  out.push_back(MakeDumbNetPacket(0x111, kBroadcastMac, {1, 2}, patch));

  BpduPayload bpdu;
  bpdu.root_id = 0x1234;
  bpdu.cost = 99;
  bpdu.sender_id = 0x5678;
  bpdu.sender_port = 2;
  bpdu.topology_change = true;
  out.push_back(MakeEthernetPacket(0x505, kBroadcastMac, kEtherTypeBpdu, bpdu));

  // Sidecar fields ride on every frame; arm them on the first sample.
  out[0].sent_time = 1234567;
  out[0].pkt_id = 89;
  out[0].provenance.Arm({0xFACE, 0xBEAD});
  out[0].provenance.AddHop({0xFACE, 3, 1});
  out[0].provenance.AddHop({0xBEAD, 2, 4});
  return out;
}

std::string_view BodyOf(const std::string& frame) {
  return std::string_view(frame).substr(kFrameHeaderBytes);
}

TEST(FrameTest, HeaderLayoutIsExact) {
  const std::string frame = EncodeFrame(FrameType::kHeartbeat, "ab");
  ASSERT_EQ(frame.size(), kFrameHeaderBytes + 2);
  EXPECT_EQ(static_cast<uint8_t>(frame[0]), 0x4E);  // magic lo ("N")
  EXPECT_EQ(static_cast<uint8_t>(frame[1]), 0x44);  // magic hi ("D")
  EXPECT_EQ(static_cast<uint8_t>(frame[2]), kFrameVersion);
  EXPECT_EQ(static_cast<uint8_t>(frame[3]), static_cast<uint8_t>(FrameType::kHeartbeat));
  EXPECT_EQ(static_cast<uint8_t>(frame[4]), 2);  // body length, little-endian
  EXPECT_EQ(static_cast<uint8_t>(frame[5]), 0);
  EXPECT_EQ(frame.substr(kFrameHeaderBytes), "ab");
}

TEST(FrameTest, HelloRoundTrip) {
  HelloBody hello;
  hello.link_index = 12;
  hello.from_switch = true;
  hello.node_index = 3;
  hello.port = 7;
  const std::string frame = EncodeHelloFrame(FrameType::kHello, hello);
  auto decoded = DecodeHelloBody(BodyOf(frame));
  ASSERT_TRUE(decoded.ok()) << decoded.error().ToString();
  EXPECT_EQ(decoded.value(), hello);
}

TEST(FrameTest, HelloRejectsTruncationAndTrailingBytes) {
  const std::string frame = EncodeHelloFrame(FrameType::kHelloAck, HelloBody{});
  const std::string body(BodyOf(frame));
  for (size_t cut = 0; cut < body.size(); ++cut) {
    EXPECT_FALSE(DecodeHelloBody(std::string_view(body).substr(0, cut)).ok())
        << "prefix of " << cut << " bytes decoded";
  }
  EXPECT_FALSE(DecodeHelloBody(body + 'x').ok());
}

// Encode -> decode -> re-encode must be byte-identical for every payload kind:
// a field the codec forgets would change the second encoding.
TEST(FrameTest, PacketRoundTripAllPayloadKinds) {
  const std::vector<Packet> samples = SamplePackets();
  ASSERT_EQ(samples.size(), std::variant_size_v<Payload>);
  for (const Packet& pkt : samples) {
    const std::string frame = EncodePacketFrame(pkt);
    auto decoded = DecodePacketBody(BodyOf(frame));
    ASSERT_TRUE(decoded.ok())
        << pkt.Describe() << ": " << decoded.error().ToString();
    EXPECT_EQ(decoded.value().payload.index(), pkt.payload.index());
    EXPECT_EQ(EncodePacketFrame(decoded.value()), frame) << pkt.Describe();
  }
}

TEST(FrameTest, PacketSidecarsSurvive) {
  const Packet pkt = SamplePackets()[0];  // the armed-provenance sample
  auto decoded = DecodePacketBody(BodyOf(EncodePacketFrame(pkt)));
  ASSERT_TRUE(decoded.ok());
  const Packet& got = decoded.value();
  EXPECT_EQ(got.eth.dst_mac, pkt.eth.dst_mac);
  EXPECT_EQ(got.eth.src_mac, pkt.eth.src_mac);
  EXPECT_EQ(got.eth.ether_type, pkt.eth.ether_type);
  EXPECT_EQ(got.tags, pkt.tags);
  EXPECT_EQ(got.sent_time, pkt.sent_time);
  EXPECT_EQ(got.pkt_id, pkt.pkt_id);
  EXPECT_EQ(got.provenance.promised(), pkt.provenance.promised());
  EXPECT_EQ(got.provenance.hops(), pkt.provenance.hops());
  const DataPayload* data = got.As<DataPayload>();
  ASSERT_NE(data, nullptr);
  EXPECT_EQ(data->flow_id, 7u);
  EXPECT_TRUE(data->ecn);
}

std::string Hex(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  for (char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

// Golden frames: the encoding is pinned byte for byte, whatever the in-memory
// layout of Packet, its provenance record or its payloads.
TEST(FrameTest, PacketFramesMatchGoldenBytes) {
  const Packet armed = SamplePackets()[0];
  ASSERT_TRUE(armed.provenance.armed());
  EXPECT_EQ(Hex(EncodePacketFrame(armed)),
            "4e4402047f0000000202000000000000010100000000000000980400010203ff"
            "87d6120000000000590000000000000002000000cefa000000000000adbe0000"
            "0000000002000000cefa0000000000000301adbe000000000000020400070000"
            "000000000009000000000000000300000000000000010903000000000000bbaa"
            "00000000000001");

  Packet unarmed = armed;
  unarmed.provenance.Clear();
  EXPECT_EQ(Hex(EncodePacketFrame(unarmed)),
            "4e4402045b0000000202000000000000010100000000000000980400010203ff"
            "87d6120000000000590000000000000000000000000000000007000000000000"
            "0009000000000000000300000000000000010903000000000000bbaa00000000"
            "000001");

  for (const Packet& pkt : SamplePackets()) {
    if (pkt.As<PathResponsePayload>() != nullptr) {
      // Links only: no primary or backup UID list follows dst_uid.
      EXPECT_EQ(Hex(EncodePacketFrame(pkt)),
                "4e44020481000000070700000000000011010000000000000098020001ff0000"
                "0000000000000000000000000000000000000000000006080800000000000008"
                "08000000000000cefa0000000000000401cefa000000000000feca0000000000"
                "0002000000cefa00000000000001adbe00000000000002adbe00000000000003"
                "feca00000000000004");
    }
    if (pkt.As<BootstrapPayload>() != nullptr) {
      EXPECT_EQ(Hex(EncodePacketFrame(pkt)),
                "4e4402048600000009090000000000001101000000000000009803000203ff00"
                "0000000000000000000000000000000000000000000000070909000000000000"
                "cefa0000000000000511010000000000001101000000000000feca0000000000"
                "000603000203ff01020000001101000000000000feca00000000000006090900"
                "0000000000cefa00000000000005");
    }
  }
}

// A frame may carry a directory in any order: the decoder sorts and indexes
// it once, and a host store fed the result resolves every MAC.
TEST(FrameTest, DecodedUnsortedDirectoryResolvesEveryMac) {
  for (const Packet& pkt : SamplePackets()) {
    const auto* sent = pkt.As<BootstrapPayload>();
    if (sent == nullptr) {
      continue;
    }
    const BootstrapInfo* boot = sent->info.get();
    ASSERT_NE(boot, nullptr);
    ASSERT_EQ(boot->directory->size(), 2u);
    // The directory's two 17-byte entries end the body: swap them.
    const std::string frame = EncodePacketFrame(pkt);
    std::string body(BodyOf(frame));
    const size_t at = body.size() - 2 * 17;
    std::rotate(body.begin() + static_cast<std::ptrdiff_t>(at),
                body.begin() + static_cast<std::ptrdiff_t>(at + 17), body.end());
    auto decoded = DecodePacketBody(body);
    ASSERT_TRUE(decoded.ok());
    const auto* got_payload = decoded.value().As<BootstrapPayload>();
    ASSERT_NE(got_payload, nullptr);
    const BootstrapInfo* got = got_payload->info.get();
    ASSERT_NE(got, nullptr);
    ASSERT_NE(got->directory, nullptr);
    EXPECT_EQ(*got->directory, *boot->directory);
    TopoDb db;
    db.UpsertHosts(got->directory);
    EXPECT_EQ(db.host_count(), got->directory->size());
    for (const HostLocation& loc : *got->directory) {
      auto found = db.LocateHost(loc.mac);
      ASSERT_TRUE(found.ok()) << loc.mac;
      EXPECT_EQ(found.value(), loc);
    }
    return;
  }
  FAIL() << "no bootstrap sample";
}

TEST(FrameTest, PacketRejectsEveryTruncation) {
  for (const Packet& pkt : SamplePackets()) {
    const std::string frame = EncodePacketFrame(pkt);
    const std::string body(BodyOf(frame));
    for (size_t cut = 0; cut < body.size(); ++cut) {
      EXPECT_FALSE(DecodePacketBody(std::string_view(body).substr(0, cut)).ok())
          << pkt.Describe() << " decoded from a " << cut << "-byte prefix";
    }
  }
}

TEST(FrameTest, PacketRejectsTrailingBytes) {
  const std::string body(BodyOf(EncodePacketFrame(SamplePackets()[0])));
  EXPECT_FALSE(DecodePacketBody(body + '\0').ok());
}

TEST(FrameTest, PacketRejectsUnknownPayloadKind) {
  // Hand-build a body whose payload kind byte is past the variant's last index.
  ByteWriter w;
  w.U64(1);                  // dst mac
  w.U64(2);                  // src mac
  w.U16(kEtherTypeDumbNet);  // ether type
  w.U16(0);                  // no tags
  w.I64(0);                  // sent_time
  w.U64(0);                  // pkt_id
  w.U32(0);                  // provenance promised
  w.U32(0);                  // provenance hops
  w.U8(static_cast<uint8_t>(std::variant_size_v<Payload>));
  EXPECT_FALSE(DecodePacketBody(w.Take()).ok());
}

// A corrupt count field must be rejected before it allocates, not after.
TEST(FrameTest, PacketRejectsAbsurdCounts) {
  ByteWriter w;
  w.U64(1);
  w.U64(2);
  w.U16(kEtherTypeDumbNet);
  w.U16(0xFFFF);  // claims 65535 tag bytes; nothing follows
  EXPECT_FALSE(DecodePacketBody(w.Take()).ok());
}

// ---------------------------------------------------------------------------------
// FrameDecoder: reassembly and poisoning.

std::string ThreeFrameStream() {
  std::string stream = EncodeHelloFrame(FrameType::kHello, HelloBody{5, true, 1, 2});
  stream += EncodeFrame(FrameType::kHeartbeat, "");
  stream += EncodePacketFrame(SamplePackets()[0]);
  return stream;
}

void ExpectThreeFrames(const std::vector<Frame>& frames) {
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, FrameType::kHello);
  EXPECT_EQ(frames[1].type, FrameType::kHeartbeat);
  EXPECT_TRUE(frames[1].body.empty());
  EXPECT_EQ(frames[2].type, FrameType::kPacket);
  EXPECT_TRUE(DecodePacketBody(frames[2].body).ok());
}

TEST(FrameDecoderTest, BackToBackFramesInOneFeed) {
  const std::string stream = ThreeFrameStream();
  FrameDecoder dec;
  dec.Feed(stream.data(), stream.size());
  std::vector<Frame> frames;
  Frame f;
  while (dec.Next(&f) == FrameDecoder::Status::kFrame) {
    frames.push_back(f);
  }
  EXPECT_FALSE(dec.failed());
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  ExpectThreeFrames(frames);
}

// However recv() splits the stream — byte-by-byte up to 7-byte chunks, none of
// which align with the 8-byte header — the same frames must come out.
TEST(FrameDecoderTest, ReassemblesAcrossArbitrarySplits) {
  const std::string stream = ThreeFrameStream();
  for (size_t chunk = 1; chunk <= 7; ++chunk) {
    FrameDecoder dec;
    std::vector<Frame> frames;
    for (size_t off = 0; off < stream.size(); off += chunk) {
      dec.Feed(stream.data() + off, std::min(chunk, stream.size() - off));
      Frame f;
      while (dec.Next(&f) == FrameDecoder::Status::kFrame) {
        frames.push_back(f);
      }
      EXPECT_FALSE(dec.failed());
    }
    ExpectThreeFrames(frames);
  }
}

TEST(FrameDecoderTest, NeedMoreUntilBodyComplete) {
  const std::string frame = EncodePacketFrame(SamplePackets()[0]);
  FrameDecoder dec;
  Frame f;
  // Every strict prefix (header included) yields kNeedMore, never a frame.
  for (size_t i = 0; i + 1 < frame.size(); ++i) {
    dec.Feed(frame.data() + i, 1);
    EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kNeedMore) << "at byte " << i;
  }
  dec.Feed(frame.data() + frame.size() - 1, 1);
  EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kFrame);
}

TEST(FrameDecoderTest, PoisonsOnHeaderCorruption) {
  struct Case {
    const char* name;
    std::string bytes;
  };
  std::string bad_magic = EncodeFrame(FrameType::kHeartbeat, "");
  bad_magic[0] = 'X';
  std::string bad_version = EncodeFrame(FrameType::kHeartbeat, "");
  bad_version[2] = static_cast<char>(kFrameVersion + 1);
  std::string bad_type = EncodeFrame(FrameType::kHeartbeat, "");
  bad_type[3] = 0x7F;
  ByteWriter oversized;
  oversized.U16(kFrameMagic);
  oversized.U8(kFrameVersion);
  oversized.U8(static_cast<uint8_t>(FrameType::kPacket));
  oversized.U32(kMaxFrameBody + 1);
  const Case cases[] = {{"bad magic", bad_magic},
                        {"bad version", bad_version},
                        {"unknown type", bad_type},
                        {"oversized body", oversized.Take()}};
  for (const Case& c : cases) {
    FrameDecoder dec;
    dec.Feed(c.bytes.data(), c.bytes.size());
    Frame f;
    EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kError) << c.name;
    EXPECT_TRUE(dec.failed()) << c.name;
    // Poisoning is permanent: a subsequent valid frame must not resurrect it.
    const std::string good = EncodeFrame(FrameType::kHeartbeat, "");
    dec.Feed(good.data(), good.size());
    EXPECT_EQ(dec.Next(&f), FrameDecoder::Status::kError) << c.name;
  }
}

TEST(FrameDecoderTest, CompactsLongLivedStreams) {
  // Enough traffic to cross the internal compaction threshold several times;
  // every frame must still come out intact and buffered_bytes return to zero.
  const std::string heartbeat = EncodeFrame(FrameType::kHeartbeat, "");
  FrameDecoder dec;
  uint64_t got = 0;
  for (int i = 0; i < 4096; ++i) {
    dec.Feed(heartbeat.data(), heartbeat.size());
    Frame f;
    while (dec.Next(&f) == FrameDecoder::Status::kFrame) {
      EXPECT_EQ(f.type, FrameType::kHeartbeat);
      ++got;
    }
  }
  EXPECT_EQ(got, 4096u);
  EXPECT_EQ(dec.buffered_bytes(), 0u);
  EXPECT_FALSE(dec.failed());
}

// ---------------------------------------------------------------------------------
// End to end: a real 2-switch fabric over Unix sockets — threads, epoll, the
// works — must discover itself, bootstrap every host, and serve pings with
// clean path provenance.

TEST(WireFabricTest, UdsFabricBootsAndServesPings) {
  Topology topo;
  const uint32_t s0 = topo.AddSwitch(4);
  const uint32_t s1 = topo.AddSwitch(4);
  ASSERT_TRUE(topo.ConnectSwitches(s0, 1, s1, 1).ok());
  ASSERT_TRUE(topo.AttachHost(topo.AddHost(), s0, 2).ok());
  ASSERT_TRUE(topo.AttachHost(topo.AddHost(), s1, 2).ok());

  WireFabricOptions fopts;
  fopts.node.disc_config.max_ports = 4;
  fopts.node.disc_config.probe_timeout = Ms(50);
  fopts.discovery_timeout = Sec(30);
  WireFabric fabric(topo, fopts);
  Status status = fabric.Start();
  ASSERT_TRUE(status.ok()) << status.ToString();
  status = fabric.RunDiscovery();
  ASSERT_TRUE(status.ok()) << status.ToString();

  uint64_t flow = 1;
  for (int i = 0; i < 3; ++i) {
    PingOutcome out = fabric.Ping(0, 1, flow++, Sec(5));
    EXPECT_TRUE(out.ok) << "ping " << i << ": "
                        << (out.timed_out ? "timed out" : out.error);
    if (out.ok) {
      EXPECT_GT(out.rtt_ns, 0);
    }
  }
  const HostAgentStats src = fabric.HostStats(0);
  const HostAgentStats dst = fabric.HostStats(1);
  EXPECT_GT(src.data_sent, 0u);
  EXPECT_GT(dst.data_received, 0u);
  EXPECT_EQ(src.path_divergence, 0u);
  EXPECT_EQ(dst.path_divergence, 0u);
  fabric.Shutdown();
}

}  // namespace
}  // namespace wire
}  // namespace dumbnet
