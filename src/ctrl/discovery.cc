#include "src/ctrl/discovery.h"

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace dumbnet {
namespace {

uint64_t PortKey(uint64_t uid, PortNum port) { return (uid << 8) | port; }

// Footprint salts/families. Everything substantive in discovery runs serialized
// on the prober's CPU queue; the conflict surface at batch granularity is the
// enqueue (declared by CpuQueue) plus first-wins probe resolution.
constexpr uint64_t kSaltDiscCpu = 0xD15C;
constexpr uint64_t kSaltInflight = 0x1F17;
constexpr const char kFpProbeFirstWins[] = "first-wins probe resolution";

}  // namespace

DiscoveryService::DiscoveryService(HostAgent* agent, DiscoveryConfig config)
    : agent_(agent),
      sim_(&agent->sim()),
      config_(config),
      cpu_(sim_, footprint::FpKey(agent->mac(), kSaltDiscCpu)) {}

void DiscoveryService::Start(std::function<void()> on_complete) {
  on_complete_ = std::move(on_complete);
  stats_.started_at = sim_->Now();
  agent_->SetProbeEventHandler([this](const Packet& pkt) { HandleProbeEvent(pkt); });

  // Phase 1: find our own attach port and switch ID with combined probes
  // 0-1-ø, 0-2-ø, ... (Section 4.1: "combine port number probing and switch ID
  // query"). Only the probe whose port points back at us returns.
  for (PortNum p = 1; p <= config_.max_ports; ++p) {
    SendProbe({.kind = ProbeKind::kAttach, .p = p});
  }
}

TagList DiscoveryService::ProbeTags(const ProbeCtx& ctx) const {
  if (ctx.kind == ProbeKind::kAttach) {
    return {kIdQueryTag, ctx.p};
  }
  // F + [p] + R (host), F + [p, 0, q] + R (link), F + [p, q, 0] + R (verify).
  const SwitchRecord& rec = switches_.at(ctx.x_uid);
  TagList tags = rec.forward;
  tags.push_back(ctx.p);
  if (ctx.kind == ProbeKind::kLink) {
    tags.insert(tags.end(), {kIdQueryTag, ctx.q});
  } else if (ctx.kind == ProbeKind::kVerify) {
    tags.insert(tags.end(), {ctx.q, kIdQueryTag});
  }
  tags.insert(tags.end(), rec.ret.begin(), rec.ret.end());
  return tags;
}

void DiscoveryService::SendProbe(const ProbeCtx& ctx) {
  uint64_t id = next_probe_id_++;
  DN_FP_COMMUTES(kDiscovery, footprint::FpKey(agent_->mac(), id, kSaltInflight),
                 kFpProbeFirstWins);
  inflight_.emplace(id, ctx);
  ++stats_.probes_sent;
  DN_COUNTER_INC("ctrl.probes_sent");
  cpu_.Run(config_.pm_send_cost, [this, id, ctx] {
    DN_FP_SCOPE("disc.probe_send", id);
    TagList tags = ProbeTags(ctx);
    DN_TRACE_EVENT(kController, kDiscovery, sim_->Now(), id, tags.size());
    TagList with_end = tags;
    with_end.push_back(kPathEndTag);
    agent_->SendTags(tags, kBroadcastMac, ProbePayload{id, agent_->mac(), std::move(with_end)});
    sim_->ScheduleAfter(config_.probe_timeout, [this, id] {
      DN_FP_SCOPE("disc.probe_timeout", id);
      // Declare the loss through the CPU queue so a reply that already arrived
      // (and is waiting behind queued sends) is processed first. Erasing here
      // directly would drop replies whenever the CPU backlog exceeds the
      // timeout — on large port counts that silently truncated discovery.
      cpu_.Run(0, [this, id] {
        DN_FP_SCOPE("disc.probe_expire", id);
        DN_FP_COMMUTES(kDiscovery,
                       footprint::FpKey(agent_->mac(), id, kSaltInflight),
                       kFpProbeFirstWins);
        if (inflight_.erase(id) > 0) {
          MaybeFinish();
        }
      });
    });
  });
}

void DiscoveryService::HandleProbeEvent(const Packet& pkt) {
  // All reply processing is controller CPU work. A host's echo is compared on
  // arrival, so the job carries a bool instead of the path: R + ø depends only
  // on the probe's switch record, which never changes.
  Reply reply;
  if (const auto* id_reply = pkt.As<IdReplyPayload>()) {
    reply = {id_reply->probe_id, id_reply->switch_uid, ReplyKind::kSwitchId};
  } else if (const auto* host = pkt.As<ProbeReplyPayload>()) {
    reply = {host->probe_id, host->responder_mac, ReplyKind::kHost};
    auto it = inflight_.find(host->probe_id);
    if (it != inflight_.end() && it->second.kind == ProbeKind::kHost) {
      TagList expected = switches_.at(it->second.x_uid).ret;
      expected.push_back(kPathEndTag);
      reply.echoes_return_path = host->reply_path == expected;
    }
  } else if (const auto* probe = pkt.As<ProbePayload>()) {
    reply = {probe->probe_id, 0, ReplyKind::kBounce};
  }
  cpu_.Run(config_.pm_recv_cost, [this, reply] { HandleReply(reply); });
}

void DiscoveryService::HandleReply(const Reply& reply) {
  DN_FP_SCOPE("disc.probe_reply", agent_->mac());
  if (reply.kind == ReplyKind::kBounce) {
    // One of our own probes bounced back (scenario ii in Section 3.3).
    ++stats_.bounces;
  }
  auto it = inflight_.find(reply.probe_id);
  if (reply.kind == ReplyKind::kNone || it == inflight_.end()) {
    return;
  }
  const ProbeCtx ctx = it->second;
  inflight_.erase(it);
  if (reply.kind != ReplyKind::kBounce) {
    ++stats_.replies_received;
  }
  if (reply.kind == ReplyKind::kSwitchId) {
    switch (ctx.kind) {
      case ProbeKind::kAttach:
        HandleAttachReply(ctx, reply.uid);
        break;
      case ProbeKind::kLink:
        HandleLinkReply(ctx, reply.uid);
        break;
      case ProbeKind::kVerify:
        HandleVerifyReply(ctx, reply.uid);
        break;
      case ProbeKind::kHost:
        break;  // an ID reply can never answer a host probe
    }
  } else if (reply.kind == ReplyKind::kHost && ctx.kind == ProbeKind::kHost) {
    // The reply path must be exactly R + ø: if the probe wandered through
    // another switch before finding a host, at least one tag of R was consumed
    // en route and the echo is shorter. Rejecting those keeps host locations
    // sound.
    if (reply.echoes_return_path) {
      db_.UpsertHost(HostLocation{reply.uid, ctx.x_uid, ctx.p});
    } else {
      ++stats_.rejected_wandered;
    }
  }
  MaybeFinish();
}

void DiscoveryService::HandleAttachReply(const ProbeCtx& ctx, uint64_t switch_uid) {
  if (attach_resolved_) {
    return;
  }
  attach_resolved_ = true;
  attach_uid_ = switch_uid;
  attach_port_ = ctx.p;
  db_.EnsureSwitch(switch_uid);
  db_.UpsertHost(HostLocation{agent_->mac(), switch_uid, ctx.p});
  switches_.emplace(switch_uid, SwitchRecord{{}, {ctx.p}});
  ExpandSwitch(switch_uid);
}

void DiscoveryService::ExpandSwitch(uint64_t uid) {
  SwitchRecord& rec = switches_[uid];
  if (rec.expanded) {
    return;
  }
  rec.expanded = true;
  for (PortNum p = 1; p <= config_.max_ports; ++p) {
    ProbePort(uid, p);
  }
}

void DiscoveryService::ProbePort(uint64_t uid, PortNum p) {
  // Host probe: a host at (uid, p) sees exactly R + ø left over and replies
  // along it.
  SendProbe({.kind = ProbeKind::kHost, .x_uid = uid, .p = p});
  for (PortNum q = 1; q <= config_.max_ports; ++q) {
    SendProbe({.kind = ProbeKind::kLink, .x_uid = uid, .p = p, .q = q});
  }
}

void DiscoveryService::HandleLinkReply(const ProbeCtx& ctx, uint64_t n_uid) {
  if (bound_ports_.count(PortKey(ctx.x_uid, ctx.p)) > 0 ||
      bound_ports_.count(PortKey(n_uid, ctx.q)) > 0) {
    return;  // already bound by a confirmed candidate
  }
  // Candidate link X.p <-> N.q. The return path may be ambiguous (Section 4.1's
  // S1/S2 example), so verify: ask the ID of the switch behind N.q; it must be X.
  ++stats_.verifies_sent;
  SendProbe({.kind = ProbeKind::kVerify, .x_uid = ctx.x_uid, .p = ctx.p, .q = ctx.q,
             .n_uid = n_uid});
}

void DiscoveryService::HandleVerifyReply(const ProbeCtx& ctx, uint64_t replied_uid) {
  if (replied_uid != ctx.x_uid) {
    ++stats_.rejected_ambiguous;
    return;
  }
  if (bound_ports_.count(PortKey(ctx.x_uid, ctx.p)) > 0 ||
      bound_ports_.count(PortKey(ctx.n_uid, ctx.q)) > 0) {
    return;
  }
  bound_ports_.insert(PortKey(ctx.x_uid, ctx.p));
  bound_ports_.insert(PortKey(ctx.n_uid, ctx.q));
  (void)db_.AddLink(WireLink{ctx.x_uid, ctx.p, ctx.n_uid, ctx.q});

  if (switches_.count(ctx.n_uid) == 0) {
    const SwitchRecord& x_rec = switches_[ctx.x_uid];
    SwitchRecord n_rec{x_rec.forward, {ctx.q}};
    n_rec.forward.push_back(ctx.p);
    n_rec.ret.insert(n_rec.ret.end(), x_rec.ret.begin(), x_rec.ret.end());
    switches_.emplace(ctx.n_uid, n_rec);
    ExpandSwitch(ctx.n_uid);
  }
}

void DiscoveryService::ReprobePort(uint64_t uid, PortNum port, std::function<void()> done) {
  if (switches_.count(uid) == 0) {
    if (done) {
      done();
    }
    return;
  }
  complete_ = false;
  if (done) {
    // Chain, never replace: a reprobe triggered while initial discovery is
    // still in flight (a link coming up mid-bring-up) must not discard the
    // Start() completion callback — losing it strands every host
    // unbootstrapped with no retry.
    if (on_complete_) {
      on_complete_ = [prev = std::move(on_complete_), done = std::move(done)] {
        prev();
        done();
      };
    } else {
      on_complete_ = std::move(done);
    }
  }
  // Unbind both sides of whatever used to be plugged in here so the rewired link
  // can be recorded.
  auto old = db_.LinkAt(uid, port);
  if (old.ok()) {
    bound_ports_.erase((old.value().uid_a << 8) | old.value().port_a);
    bound_ports_.erase((old.value().uid_b << 8) | old.value().port_b);
  }
  bound_ports_.erase(PortKey(uid, port));
  ProbePort(uid, port);
}

void DiscoveryService::MaybeFinish() {
  if (complete_ || !attach_resolved_ || !inflight_.empty()) {
    return;
  }
  complete_ = true;
  stats_.finished_at = sim_->Now();
  DN_INFO << "discovery complete: " << db_.switch_count() << " switches, "
          << db_.link_count() << " links, " << db_.host_count() << " hosts in "
          << ToSec(stats_.finished_at - stats_.started_at) << "s ("
          << stats_.probes_sent << " PMs)";
  if (on_complete_) {
    auto cb = std::move(on_complete_);
    on_complete_ = nullptr;
    cb();
  }
}

}  // namespace dumbnet
