#include "src/transport/phost.h"

#include <algorithm>
#include <unordered_set>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"

namespace dumbnet {
namespace {

// Control-message markers. RTS rides in DataPayload::seq; receiver->sender control
// messages ride is_ack=true with the marker in DataPayload::ack's top bits.
constexpr uint64_t kRtsSeq = UINT64_MAX;
constexpr uint64_t kTokenMark = 1ULL << 62;
constexpr uint64_t kDoneMark = 1ULL << 63;
constexpr int64_t kControlBytes = 40;

}  // namespace

// --------------------------------------------------------------------------------
// Receiver

PHostReceiver::PHostReceiver(TransportChannel* channel, uint64_t flow_id_base,
                             PHostConfig config)
    : channel_(channel), sim_(&channel->sim()), flow_id_base_(flow_id_base),
      config_(config) {
  channel_->SetDefaultSegmentHandler([this](uint64_t src_mac, const DataPayload& seg) {
    if (!seg.is_ack) {
      OnSegment(src_mac, seg);
    }
  });
}

void PHostReceiver::OnSegment(uint64_t src_mac, const DataPayload& seg) {
  if (seg.flow_id < flow_id_base_) {
    return;  // not a pHost flow
  }
  if (seg.seq == kRtsSeq) {
    // RTS (possibly a retry): (re)register the flow; on retry, re-grant from what
    // actually arrived so lost tokens/segments are re-covered.
    InboundFlow& flow = flows_[seg.flow_id];
    flow.src_mac = src_mac;
    flow.total_segments = seg.ack;
    flow.granted = std::min(flow.granted, flow.received_segments);
    // The sender spends its free tokens immediately; those segments need no grant.
    if (flow.granted < std::min<uint64_t>(config_.free_tokens, flow.total_segments)) {
      flow.granted = std::min<uint64_t>(config_.free_tokens, flow.total_segments);
    }
    if (!pacing_) {
      pacing_ = true;
      PaceTokens();
    }
    return;
  }
  auto it = flows_.find(seg.flow_id);
  if (it == flows_.end()) {
    return;  // data before RTS: drop (sender will retry)
  }
  InboundFlow& flow = it->second;
  if (!flow.seen.insert(seg.seq).second) {
    return;  // duplicate
  }
  ++flow.received_segments;
  while (flow.seen.count(flow.next_missing) > 0) {
    ++flow.next_missing;
  }
  bytes_received_ += static_cast<uint64_t>(seg.bytes);
  if (flow.received_segments >= flow.total_segments) {
    DataPayload done;
    done.flow_id = seg.flow_id;
    done.is_ack = true;
    done.ack = kDoneMark;
    done.bytes = kControlBytes;
    channel_->SendSegment(flow.src_mac, done);
    flows_.erase(it);
  }
}

void PHostReceiver::PaceTokens() {
  GrantOne();
  // Keep pacing while any flow still needs grants.
  bool more = false;
  for (const auto& [id, flow] : flows_) {
    if (flow.granted < flow.total_segments) {
      more = true;
      break;
    }
  }
  if (!more) {
    pacing_ = false;
    return;
  }
  TimeNs interval = TransmitTimeNs(config_.segment_bytes + 14, config_.downlink_gbps);
  sim_->ScheduleAfter(interval, [this] { PaceTokens(); });
}

void PHostReceiver::GrantOne() {
  // SRPT: grant to the flow with the fewest remaining segments.
  InboundFlow* best = nullptr;
  uint64_t best_id = 0;
  uint64_t best_remaining = UINT64_MAX;
  for (auto& [id, flow] : flows_) {
    if (flow.granted >= flow.total_segments) {
      continue;
    }
    uint64_t remaining = flow.total_segments - flow.granted;
    if (remaining < best_remaining) {
      best_remaining = remaining;
      best = &flow;
      best_id = id;
    }
  }
  if (best == nullptr) {
    return;
  }
  ++best->granted;
  ++tokens_issued_;
  DataPayload token;
  token.flow_id = best_id;
  token.is_ack = true;
  token.ack = kTokenMark;
  // Repair hint: the smallest missing sequence number (the sender rewinds here if
  // it already sent past this point and something was lost).
  token.seq = best->next_missing;
  token.bytes = kControlBytes;
  channel_->SendSegment(best->src_mac, token);
}

// --------------------------------------------------------------------------------
// Sender

PHostSender::PHostSender(TransportChannel* channel, uint64_t flow_id, uint64_t dst_mac,
                         uint64_t total_bytes, PHostConfig config)
    : channel_(channel),
      sim_(&channel->sim()),
      flow_id_(flow_id),
      dst_mac_(dst_mac),
      total_segments_((total_bytes + static_cast<uint64_t>(config.segment_bytes) - 1) /
                      static_cast<uint64_t>(config.segment_bytes)),
      config_(config) {
  channel_->SetSegmentHandler(flow_id_, [this](uint64_t, const DataPayload& msg) {
    if (msg.is_ack) {
      OnControl(msg);
    }
  });
}

void PHostSender::Start(std::function<void()> on_complete) {
  on_complete_ = std::move(on_complete);
  DataPayload rts;
  rts.flow_id = flow_id_;
  rts.seq = UINT64_MAX;  // kRtsSeq
  rts.ack = total_segments_;
  rts.bytes = kControlBytes;
  channel_->SendSegment(dst_mac_, rts);
  // Spend the free-token budget right away (short flows finish in ~1 RTT).
  for (uint32_t i = 0; i < config_.free_tokens && segments_sent_ < total_segments_; ++i) {
    SendSegment();
  }
  ArmRetry();
}

void PHostSender::OnControl(const DataPayload& msg) {
  if (finished_) {
    return;
  }
  if (msg.ack & kDoneMark) {
    finished_ = true;
    ++retry_epoch_;
    if (on_complete_) {
      on_complete_();
    }
    return;
  }
  if (msg.ack & kTokenMark) {
    if (segments_sent_ >= total_segments_ && msg.seq < total_segments_) {
      // Everything has been sent once but the receiver is still missing
      // `msg.seq`: targeted retransmission (one token repairs one loss).
      DN_COUNTER_INC("transport.retransmissions");
      DN_TRACE_EVENT(kTransport, kRetransmit, sim_->Now(), flow_id_, msg.seq);
      DataPayload seg;
      seg.flow_id = flow_id_;
      seg.seq = msg.seq;
      seg.bytes = config_.segment_bytes;
      channel_->SendSegment(dst_mac_, seg);
    } else if (segments_sent_ < total_segments_) {
      SendSegment();
    }
    ArmRetry();
  }
}

void PHostSender::SendSegment() {
  DataPayload seg;
  seg.flow_id = flow_id_;
  seg.seq = segments_sent_++;
  seg.bytes = config_.segment_bytes;
  channel_->SendSegment(dst_mac_, seg);
}

void PHostSender::ArmRetry() {
  uint64_t epoch = ++retry_epoch_;
  sim_->ScheduleAfter(config_.retry_timeout, [this, epoch] {
    if (epoch != retry_epoch_ || finished_) {
      return;
    }
    // Stall: something was lost. Re-announce; the receiver re-grants from what it
    // actually has, and our send cursor rewinds on the next repair hint.
    DN_COUNTER_INC("transport.timeouts");
    DN_TRACE_EVENT(kTransport, kTimeout, sim_->Now(), flow_id_, segments_sent_);
    DataPayload rts;
    rts.flow_id = flow_id_;
    rts.seq = UINT64_MAX;
    rts.ack = total_segments_;
    rts.bytes = kControlBytes;
    channel_->SendSegment(dst_mac_, rts);
    ArmRetry();
  });
}

}  // namespace dumbnet
