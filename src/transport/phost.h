// pHost-style receiver-driven transport (Gao et al., CoNEXT'15), the
// source-routing-friendly datacenter transport the paper names as a natural
// DumbNet extension ("We can easily support existing source-routing based
// optimizations such as pHost on to DumbNet too", Section 3.1).
//
// Simplified faithful core:
//   * the sender announces a flow with an RTS (request-to-send) carrying its size;
//   * the receiver paces out one TOKEN per packet slot at its downlink rate,
//     multiplexing tokens between concurrent senders (shortest-remaining-first);
//   * a sender may spend a small budget of FREE tokens at flow start (one BDP) so
//     short flows finish in one RTT;
//   * each data packet answers one token; the receiver acks completion.
//
// Because the *receiver* schedules arrivals, concurrent incast senders never
// overrun the bottleneck downlink queue — the behaviour the incast test and bench
// check against the window-based ReliableFlow.
//
// Wire encoding: control messages ride DataPayload with seq/ack repurposed
// (kRts/kToken/kDone markers in `ack`), so no new payload type is needed.
#ifndef DUMBNET_SRC_TRANSPORT_PHOST_H_
#define DUMBNET_SRC_TRANSPORT_PHOST_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <unordered_map>
#include <unordered_set>

#include "src/transport/reliable_flow.h"

namespace dumbnet {

struct PHostConfig {
  int64_t segment_bytes = 1460;
  // Free tokens spent before the first granted token arrives (~one BDP).
  uint32_t free_tokens = 8;
  // The receiver's token pacing interval ~ segment serialization time on its
  // downlink; configure to the known access-link rate.
  double downlink_gbps = 10.0;
  // Sender gives up if nothing arrives for this long (token loss recovery).
  TimeNs retry_timeout = Ms(20);
};

// Receiver half: schedules all inbound flows on one downlink.
class PHostReceiver {
 public:
  PHostReceiver(TransportChannel* channel, uint64_t flow_id_base,
                PHostConfig config = PHostConfig());

  // Total payload bytes received across flows.
  uint64_t bytes_received() const { return bytes_received_; }
  uint64_t tokens_issued() const { return tokens_issued_; }

 private:
  struct InboundFlow {
    uint64_t src_mac = 0;
    uint64_t total_segments = 0;
    uint64_t received_segments = 0;
    uint64_t granted = 0;       // tokens issued so far
    uint64_t next_missing = 0;  // smallest sequence number not yet received
    std::unordered_set<uint64_t> seen;  // duplicate filter
  };

  void OnSegment(uint64_t src_mac, const DataPayload& seg);
  void PaceTokens();
  void GrantOne();

  TransportChannel* channel_;
  Simulator* sim_;
  uint64_t flow_id_base_;
  PHostConfig config_;

  std::map<uint64_t, InboundFlow> flows_;  // ordered: deterministic iteration
  uint64_t bytes_received_ = 0;
  uint64_t tokens_issued_ = 0;
  bool pacing_ = false;
};

// Sender half: one flow.
class PHostSender {
 public:
  PHostSender(TransportChannel* channel, uint64_t flow_id, uint64_t dst_mac,
              uint64_t total_bytes, PHostConfig config = PHostConfig());

  void Start(std::function<void()> on_complete = nullptr);

  uint64_t segments_sent() const { return segments_sent_; }
  bool finished() const { return finished_; }

 private:
  void OnControl(const DataPayload& msg);
  void SendSegment();
  void ArmRetry();

  TransportChannel* channel_;
  Simulator* sim_;
  uint64_t flow_id_;
  uint64_t dst_mac_;
  uint64_t total_segments_;
  PHostConfig config_;

  uint64_t segments_sent_ = 0;
  uint64_t tokens_available_ = 0;
  bool finished_ = false;
  uint64_t retry_epoch_ = 0;
  std::function<void()> on_complete_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_TRANSPORT_PHOST_H_
