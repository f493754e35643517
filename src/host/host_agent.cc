#include "src/host/host_agent.h"

#include <algorithm>

#include "src/analysis/audit.h"
#include "src/analysis/contracts.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace dumbnet {
namespace {

// Footprint entity salts within this host's kHost space (see DN_FP_* below).
constexpr uint64_t kSaltSeenEvent = 0x5EE4;
constexpr uint64_t kSaltSeenPatch = 0x9A7C;
constexpr uint64_t kSaltOutstanding = 0x0075;
constexpr uint64_t kSaltBootstrap = 0xB007;
constexpr uint64_t kSaltPortObs = 0xF0B7;

// Commute families. The conflict checker compares these by content: two
// commuting writes are benign only when they claim the same family.
constexpr const char kFpDedup[] = "idempotent dedup-set insert";
constexpr const char kFpLinkObsLww[] = "lww link-observation merge";
constexpr const char kFpRouteRecompute[] = "route recompute from merged cache";
constexpr const char kFpRequestDedup[] = "first-wins path-request dedup";

// One LWW cell per physical link, independent of which endpoint reported it.
uint64_t EdgeCell(uint64_t uid_a, uint64_t uid_b) {
  return footprint::FpKey(std::min(uid_a, uid_b), std::max(uid_a, uid_b));
}

// Fallback cell for observations about a link the cache cannot resolve yet; a
// later path-graph merge that introduces the edge replays the freshest of these.
uint64_t PortObsCell(uint64_t uid, PortNum port) {
  return footprint::FpKey(uid, static_cast<uint64_t>(port), kSaltPortObs);
}

// Stable 64-bit mix for link-event dedup ids.
uint64_t MixEventId(uint64_t uid, PortNum port, uint64_t seq, bool up) {
  uint64_t x = uid * 0x9e3779b97f4a7c15ULL;
  x ^= (static_cast<uint64_t>(port) << 40) ^ (seq << 1) ^ (up ? 1 : 0);
  x ^= x >> 29;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 32;
  return x;
}

}  // namespace

HostAgent::HostAgent(Network* net, uint32_t host_index, HostAgentConfig config)
    : net_(net),
      sim_(&net->sim()),
      packets_(&net->packet_pool()),
      host_index_(host_index),
      mac_(net->topo().host_at(host_index).mac),
      config_(config),
      path_table_(config.rng_seed ^ mac_ ^ 0xABCDULL) {
  net->RegisterHostNode(host_index, this);
}

void HostAgent::SetRouteChooser(PathTable::RouteChooser chooser) {
  path_table_.SetRouteChooser(std::move(chooser));
}

// ---------------------------------------------------------------------------------
// Data path

Status HostAgent::Send(uint64_t dst_mac, uint64_t flow_id, DataPayload payload) {
  if (dst_mac == mac_) {
    return Error(ErrorCode::kInvalidArgument, "loopback send");
  }
  // The flow id is authoritative path-binding state; stamp it into the payload so
  // a packet parked on a cache miss rebinds under the same identity when flushed.
  payload.flow_id = flow_id;
  auto route = path_table_.RouteFor(dst_mac, flow_id);
  if (!route.ok() && bootstrapped_ && RouteOrAsk(dst_mac)) {
    route = path_table_.RouteFor(dst_mac, flow_id);
  }
  if (!route.ok()) {
    // Neither cache level routes it: park the packet until the controller's
    // answer arrives (Section 5.2).
    pending_[dst_mac].push_back(MakeEthernetPacket(mac_, dst_mac, kEtherTypeDumbNet, payload));
    ++stats_.data_blocked;
    DN_COUNTER_INC("host.data_blocked");
    return Status::Ok();
  }
  // The packet's own storage: its tag stack (sized once) and, when telemetry
  // arms it, the provenance record promising the switch-UID sequence this
  // route was compiled from. From here on it only moves.
  Packet pkt = MakeDumbNetPacket(mac_, dst_mac, route.value()->tags, payload);
  if (telemetry::Enabled()) {
    pkt.provenance.Arm(route.value()->uid_path);
  }
  ++stats_.data_sent;
  DN_COUNTER_INC("host.data_sent");
  DN_TRACE_EVENT(kHost, kSend, sim_->Now(), mac_, flow_id);
  ScheduleSend(std::move(pkt));
  return Status::Ok();
}

Status HostAgent::SendOnPath(uint64_t dst_mac, const std::vector<uint64_t>& uid_path,
                             DataPayload payload) {
  auto dst = topo_cache_.Locate(dst_mac);
  if (!dst.ok()) {
    return dst.error();
  }
  PathVerifier verifier(&topo_cache_.db(), VerifyPolicy{});
  if (Status s = verifier.VerifyUidPath(uid_path); !s.ok()) {
    ++stats_.verify_failures;
    return s;
  }
  auto tags = topo_cache_.db().CompileTagsForUidPath(uid_path, dst.value().port);
  if (!tags.ok()) {
    return tags.error();
  }
  ++stats_.data_sent;
  SendTags(tags.value(), dst_mac, payload);
  return Status::Ok();
}

void HostAgent::SendTags(const TagList& tags, uint64_t dst_mac, Payload payload) {
  ScheduleSend(MakeDumbNetPacket(mac_, dst_mac, tags, std::move(payload)));
}

void HostAgent::ScheduleSend(Packet&& pkt) {
  // Per-packet fast path: parking the packet and filing its send event must
  // not allocate (pool and event-slot growth aside). The packet is parked
  // once; its handle goes on to the network.
  DN_HOT_SCOPE("host.send");
  auto send = [this, pkt = packets_->Park(std::move(pkt))]() mutable {
    net_->SendFromHost(host_index_, std::move(pkt));
  };
  static_assert(EventFn::kStoresInline<decltype(send)>);
  ReserveEventSlot(*sim_);
  sim_->ScheduleAfter(config_.process_delay, std::move(send));
}

Status HostAgent::SendToController(Payload payload) {
  if (!bootstrapped_) {
    return Error(ErrorCode::kUnavailable, "not bootstrapped");
  }
  if (controller_mac_ == mac_) {
    // The controller service runs on this very host; hand the payload over
    // directly, skipping the fabric.
    Packet pkt = MakeEthernetPacket(mac_, mac_, kEtherTypeDumbNet, std::move(payload));
    if (control_handler_) {
      control_handler_(pkt);
    }
    return Status::Ok();
  }
  // Prefer a cached (and therefore failure-repaired) route to the controller; the
  // static bootstrap path is only the cold-start fallback. Without this, a failure
  // on the bootstrap path would silently blackhole every path request.
  auto route = path_table_.RouteFor(controller_mac_, /*flow_id=*/0xC0C0);
  if (route.ok()) {
    SendTags(route.value()->tags, controller_mac_, std::move(payload));
  } else {
    SendTags(controller_tags_, controller_mac_, std::move(payload));
  }
  return Status::Ok();
}

// ---------------------------------------------------------------------------------
// Receive path

void HostAgent::HandlePacket(const Packet& pkt, PortNum in_port) {
  Receive(packets_->Park(Packet(pkt)), in_port);
}

void HostAgent::HandlePacket(Packet&& pkt, PortNum in_port) {
  Receive(packets_->Park(std::move(pkt)), in_port);
}

void HostAgent::Receive(PooledPacket pkt, PortNum in_port) {
  (void)in_port;  // hosts have a single NIC
  if (pkt->eth.ether_type != kEtherTypeDumbNet) {
    ++stats_.dropped_malformed;
    return;
  }
  // Hop-limited fabric broadcast (stage-1 failure notification), read in
  // place: its body may be shared with the flood's other copies. Handling it
  // is host software work like any other packet, so it pays the processing
  // delay.
  if (pkt->tags.empty()) {
    if (const auto* ev_ptr = pkt->As<PortEventPayload>()) {
      PortEventPayload ev = *ev_ptr;
      sim_->ScheduleAfter(config_.process_delay, [this, ev] {
        ProcessLinkState(ev.switch_uid, ev.port, ev.up, ev.origin_time,
                         MixEventId(ev.switch_uid, ev.port, ev.event_seq, ev.up),
                         /*from_fabric=*/true, /*from_mac=*/0);
      });
    }
    return;
  }
  if (pkt->tags.size() == 1 && pkt->tags.front() == kPathEndTag) {
    // Fully consumed path: this packet is for us. Strip ø and deliver (the kernel
    // module's EtherType + ø check, Section 5.1). Per-packet fast path: the
    // packet's handle moves into its deliver event, which must not allocate
    // (event-slot growth aside).
    DN_HOT_SCOPE("host.deliver");
    auto deliver = [this, pkt = std::move(pkt)] { DeliverLocal(*pkt); };
    static_assert(EventFn::kStoresInline<decltype(deliver)>);
    ReserveEventSlot(*sim_);
    sim_->ScheduleAfter(config_.process_delay, std::move(deliver));
    return;
  }
  // Tags remain: only discovery probes are allowed to hit a host mid-path — the
  // remaining tags are the reply path (Section 4.1).
  if (pkt->As<ProbePayload>() != nullptr) {
    HandleTransitProbe(std::move(pkt.Mutable()));
    return;
  }
  ++stats_.dropped_malformed;
}

void HostAgent::HandleTransitProbe(Packet&& pkt) {
  const ProbePayload& probe = *pkt.As<ProbePayload>();
  if (probe.origin_mac == mac_) {
    // Our own probe touring back through us with leftover tags; treat as a bounce.
    if (probe_event_handler_) {
      probe_event_handler_(pkt);
    }
    return;
  }
  if (pkt.tags.front() == kIdQueryTag) {
    // A reply path cannot begin with an ID query; this is a link probe that hit a
    // host port. Stay silent.
    return;
  }
  // Reply "I am <mac>" along the remaining tags verbatim (they already end in ø).
  Packet reply;
  reply.eth.src_mac = mac_;
  reply.eth.dst_mac = probe.origin_mac;
  reply.eth.ether_type = kEtherTypeDumbNet;
  reply.payload = ProbeReplyPayload{probe.probe_id, mac_, pkt.tags,
                                    bootstrapped_ ? controller_mac_ : 0};
  reply.tags = std::move(pkt.tags);
  ++stats_.probes_replied;
  ScheduleSend(std::move(reply));
}

void HostAgent::DeliverLocal(const Packet& pkt) {
  DN_FP_SCOPE("host.deliver", mac_);
  // A service running on this host (the controller) gets first refusal — except
  // for link events and patches, which the agent processes itself (deduplicated
  // link events are re-offered to the control handler by ProcessLinkState).
  const bool agent_owned = pkt.As<LinkEventPayload>() != nullptr ||
                           pkt.As<TopologyPatchPayload>() != nullptr;
  if (!agent_owned && control_handler_ && control_handler_(pkt)) {
    return;
  }
  if (const auto* data = pkt.As<DataPayload>()) {
    ++stats_.data_received;
    DN_COUNTER_INC("host.data_received");
    DN_TRACE_EVENT(kHost, kReceive, sim_->Now(), mac_, data->flow_id);
    // Verify the path taken against the sender's promise (in-band provenance).
    if (telemetry::Enabled() && pkt.provenance.armed() &&
        !telemetry::ProvenanceMatches(pkt.provenance)) {
      ++stats_.path_divergence;
      DN_COUNTER_INC("host.path_divergence");
      DN_TRACE_EVENT(kHost, kDivergence, sim_->Now(), mac_, data->flow_id);
      DN_LOG_KV(kWarn, "host.path_divergence")
          .Kv("host", mac_)
          .Kv("flow", data->flow_id)
          .Kv("detail", telemetry::DescribeProvenance(pkt.provenance));
    }
    if (data_handler_) {
      data_handler_(pkt, *data);
    }
    return;
  }
  if (const auto* probe = pkt.As<ProbePayload>()) {
    if (probe->origin_mac == mac_ && probe_event_handler_) {
      probe_event_handler_(pkt);  // bounced PM (scenario ii in Section 3.3)
    }
    // A foreign probe whose path ends exactly here has no reply path; drop.
    return;
  }
  if (pkt.As<ProbeReplyPayload>() != nullptr || pkt.As<IdReplyPayload>() != nullptr) {
    if (probe_event_handler_) {
      probe_event_handler_(pkt);
    }
    return;
  }
  if (const auto* resp = pkt.As<PathResponsePayload>()) {
    ++stats_.path_responses;
    DN_COUNTER_INC("host.path_responses");
    // Installing a response is order-sensitive state (the destination's
    // location is a plain overwrite), hence a Write — concurrent responses
    // for the same destination are a hazard worth hearing about.
    DN_FP_WRITE(kPathTable, footprint::FpKey(mac_, resp->dst_mac));
    if (resp->graph != nullptr) {
      (void)topo_cache_.Integrate(*resp->graph, resp->dst_location);
      // A merge teaches structure only; it never changes a cached link's state.
      // Replay the freshest observation that arrived before the edge was cached
      // (recorded under the port fallback cell), so "down heard before the edge
      // existed" survives the merge no matter which event ran first.
      for (const WireLink& l : resp->graph->links) {
        const uint64_t cell = EdgeCell(l.uid_a, l.uid_b);
        DN_FP_COMMUTES(kTopoCache, footprint::FpKey(mac_, cell), kFpLinkObsLww);
        uint64_t key = 0;
        if (auto it = link_obs_key_.find(PortObsCell(l.uid_a, l.port_a));
            it != link_obs_key_.end()) {
          key = std::max(key, it->second);
        }
        if (auto it = link_obs_key_.find(PortObsCell(l.uid_b, l.port_b));
            it != link_obs_key_.end()) {
          key = std::max(key, it->second);
        }
        if (key == 0) {
          continue;
        }
        auto [cit, inserted] = link_obs_key_.emplace(cell, key);
        if (!inserted && key > cit->second) {
          cit->second = key;
        }
        if ((cit->second & 1) == 0) {
          topo_cache_.db().SetLinkState(l.uid_a, l.port_a, false);
        }
      }
    } else {
      topo_cache_.UpsertHost(resp->dst_location);
    }
    AnswerPathRequest(resp->dst_mac);
    return;
  }
  if (const auto* boot = pkt.As<BootstrapPayload>()) {
    ApplyBootstrap(boot->info != nullptr ? *boot->info : BootstrapInfo{});
    return;
  }
  if (const auto* ev = pkt.As<LinkEventPayload>()) {
    ProcessLinkState(ev->switch_uid, ev->port, ev->up, ev->origin_time, ev->event_id,
                     /*from_fabric=*/false, pkt.eth.src_mac);
    return;
  }
  if (const auto* patch = pkt.As<TopologyPatchPayload>()) {
    ApplyPatchLocally(*patch, pkt.eth.src_mac);
    return;
  }
  ++stats_.dropped_malformed;
}

void HostAgent::ApplyPatchLocally(const TopologyPatchPayload& patch, uint64_t from_mac) {
  DN_FP_SCOPE("host.patch", mac_);
  DN_FP_COMMUTES(kHost, footprint::FpKey(mac_, patch.patch_seq, kSaltSeenPatch),
                 kFpDedup);
  if (!seen_patches_.insert(patch.patch_seq).second) {
    return;  // duplicate via another flood path
  }
  // Note: NOT a monotonic cutoff. A patch overtaken on the wire by a later one
  // still applies, entry by entry, gated per link below — the old
  // `patch_seq <= last` check silently dropped its unrelated entries.
  ++stats_.patches_applied;
  static const std::vector<WireLink> kEmpty;
  const auto& removed = patch.removed != nullptr ? *patch.removed : kEmpty;
  const auto& added = patch.added != nullptr ? *patch.added : kEmpty;
  // Per-link LWW merge: a patch entry and a gossiped link event are the same
  // observation in different envelopes, so both funnel through
  // RecordLinkObservation keyed by the physical edge. A stale entry heard after
  // a fresher observation no longer rolls the cache back, which makes
  // patch-vs-gossip arrival order irrelevant to the converged state. (The patch
  // stamps its aggregation window's first origin on every entry — a deliberately
  // coarse attribution; see DESIGN.md §11.)
  for (const WireLink& l : removed) {
    const uint64_t cell = EdgeCell(l.uid_a, l.uid_b);
    DN_FP_COMMUTES(kTopoCache, footprint::FpKey(mac_, cell), kFpLinkObsLww);
    if (!RecordLinkObservation(cell, /*up=*/false, patch.origin_time)) {
      continue;
    }
    topo_cache_.db().SetLinkState(l.uid_a, l.port_a, false);
    RepairAfterLinkChange(l.uid_a, l.uid_b);
  }
  for (const WireLink& l : added) {
    const uint64_t cell = EdgeCell(l.uid_a, l.uid_b);
    DN_FP_COMMUTES(kTopoCache, footprint::FpKey(mac_, cell), kFpLinkObsLww);
    if (!RecordLinkObservation(cell, /*up=*/true, patch.origin_time)) {
      continue;
    }
    // AddLink marks a pre-existing link up again and inserts a new one.
    (void)topo_cache_.db().AddLink(l);
  }
  if (patch_hook_) {
    patch_hook_(patch);
  }
  FloodToPeers(patch, from_mac);
}

bool HostAgent::RecordLinkObservation(uint64_t cell, bool up, TimeNs origin_time) {
  const uint64_t key = (static_cast<uint64_t>(origin_time) << 1) | (up ? 1ULL : 0ULL);
  auto [it, inserted] = link_obs_key_.emplace(cell, key);
  if (inserted) {
    return true;
  }
  if (key <= it->second) {
    return false;
  }
  it->second = key;
  return true;
}

// ---------------------------------------------------------------------------------
// Failure handling (Section 4.2)

void HostAgent::ProcessLinkState(uint64_t switch_uid, PortNum port, bool up,
                                 TimeNs origin_time, uint64_t event_id, bool from_fabric,
                                 uint64_t from_mac) {
  if (notification_interceptor_) {
    const LinkEventPayload ev{event_id, switch_uid, port, up, origin_time};
    const TimeNs verdict = notification_interceptor_(ev, from_fabric);
    if (verdict < 0) {
      ++stats_.notifications_dropped;
      DN_COUNTER_INC("host.notifications_dropped");
      return;
    }
    if (verdict > 0) {
      // Defer the copy: it re-enters the normal pipeline later, racing fresher
      // observations — exactly the stale-notification ordering the LWW merge
      // must absorb. One deferral per copy: the deferred event bypasses the
      // interceptor, so a constant-delay interceptor cannot loop forever.
      ++stats_.notifications_delayed;
      DN_COUNTER_INC("host.notifications_delayed");
      sim_->ScheduleAfter(verdict, [this, switch_uid, port, up, origin_time, event_id,
                                    from_fabric, from_mac] {
        ProcessLinkStateNow(switch_uid, port, up, origin_time, event_id, from_fabric,
                            from_mac);
      });
      return;
    }
  }
  ProcessLinkStateNow(switch_uid, port, up, origin_time, event_id, from_fabric,
                      from_mac);
}

void HostAgent::ProcessLinkStateNow(uint64_t switch_uid, PortNum port, bool up,
                                    TimeNs origin_time, uint64_t event_id,
                                    bool from_fabric, uint64_t from_mac) {
  DN_FP_SCOPE("host.link_state", mac_);
  DN_FP_COMMUTES(kHost, footprint::FpKey(mac_, event_id, kSaltSeenEvent), kFpDedup);
  if (!seen_events_.insert(event_id).second) {
    return;  // duplicate alarm, suppressed (host side of Section 4.2)
  }
  if (from_fabric) {
    ++stats_.port_events_seen;
    DN_COUNTER_INC("host.port_events_seen");
  } else {
    ++stats_.link_events_seen;
    DN_COUNTER_INC("host.gossip_events_seen");
  }
  DN_TRACE_EVENT(kHost, kGossip, sim_->Now(), mac_, switch_uid);
  DN_LOG_KV(kDebug, "host.link_event")
      .Kv("host", mac_)
      .Kv("switch", switch_uid)
      .Kv("port", static_cast<unsigned>(port))
      .Kv("up", up ? 1 : 0);

  LinkEventPayload ev{event_id, switch_uid, port, up, origin_time};
  if (link_event_hook_) {
    link_event_hook_(ev, from_fabric);
  }

  // Update the cache and fail over *before* spending time flooding: the data path
  // recovers first. Application is gated by the per-link last-writer-wins merge:
  // a stale event arriving after a fresher one (via a longer flood path) can no
  // longer roll the cache back, so every arrival order converges to the same
  // marked state.
  auto edge = topo_cache_.ResolveEdge(switch_uid, port);
  const uint64_t cell = edge.ok()
                            ? EdgeCell(edge.value().first, edge.value().second)
                            : PortObsCell(switch_uid, port);
  DN_FP_COMMUTES(kTopoCache, footprint::FpKey(mac_, cell), kFpLinkObsLww);
  if (RecordLinkObservation(cell, up, origin_time) && edge.ok()) {
    topo_cache_.db().SetLinkState(switch_uid, port, up);
    if (!up) {
      RepairAfterLinkChange(edge.value().first, edge.value().second);
    }
  }

  // Relay to gossip peers (peer-to-peer flooding).
  FloodToPeers(ev, from_mac);

  // The controller service (if co-located) learns about it the same way.
  if (control_handler_) {
    Packet synthetic = MakeEthernetPacket(from_mac, mac_, kEtherTypeDumbNet, ev);
    control_handler_(synthetic);
  }
}

void HostAgent::RepairAfterLinkChange(uint64_t uid_a, uint64_t uid_b) {
  std::vector<uint64_t> starved = path_table_.InvalidateEdge(uid_a, uid_b);
  ++stats_.link_repairs;
  DN_COUNTER_INC("host.link_repairs");
  DN_TRACE_EVENT(kHost, kRepair, sim_->Now(), mac_, starved.size());
  for (uint64_t dst : starved) {
    // Local detours first (the cache already knows the link is down), controller
    // as a last resort.
    if (RouteOrAsk(dst)) {
      ++stats_.reroutes;
      DN_COUNTER_INC("host.reroutes");
      DN_TRACE_EVENT(kHost, kFailover, sim_->Now(), mac_, dst);
    }
  }
}

void HostAgent::FloodToPeers(const Payload& payload, uint64_t exclude_mac) {
  for (const HostLocation& peer : gossip_peers_) {
    if (peer.mac == exclude_mac || peer.mac == mac_) {
      continue;
    }
    if (peer.switch_uid == self_.switch_uid) {
      // Same-switch neighbors are reachable with a single tag, no cache needed.
      SendTags({peer.port}, peer.mac, payload);
      ++stats_.floods_sent;
      continue;
    }
    auto route = path_table_.RouteFor(peer.mac, /*flow_id=*/peer.mac);
    if (route.ok()) {
      SendTags(route.value()->tags, peer.mac, payload);
      ++stats_.floods_sent;
    }
    // Best effort otherwise: the ring has enough redundancy to route around one
    // unreachable peer.
  }
}

// ---------------------------------------------------------------------------------
// Bootstrap & controller protocol

bool HostAgent::HoldsBootstrap(const BootstrapInfo& bootstrap) const {
  if (!bootstrapped_ || !(self_ == bootstrap.self) ||
      controller_mac_ != bootstrap.controller_mac) {
    return false;
  }
  const TagList& up = bootstrap.path_to_controller;
  const size_t len = !up.empty() && up.back() == kPathEndTag ? up.size() - 1 : up.size();
  if (len != controller_tags_.size() ||
      !std::equal(controller_tags_.begin(), controller_tags_.end(), up.begin())) {
    return false;
  }
  const TopoDb::SharedDirectory& held = topo_cache_.db().host_base();
  if (held == bootstrap.directory || bootstrap.directory == nullptr) {
    return true;
  }
  return held != nullptr && *held == *bootstrap.directory;
}

void HostAgent::ApplyBootstrap(const BootstrapInfo& bootstrap) {
  DN_FP_WRITE(kHost, footprint::FpKey(mac_, kSaltBootstrap));
  if (HoldsBootstrap(bootstrap)) {
    // A resend whose original already arrived (its ack was still on the
    // way): nothing to change, and the warm-up request below is already
    // outstanding or answered.
    return;
  }
  self_ = bootstrap.self;
  controller_mac_ = bootstrap.controller_mac;
  controller_tags_ = bootstrap.path_to_controller;
  if (!controller_tags_.empty() && controller_tags_.back() == kPathEndTag) {
    controller_tags_.pop_back();
  }
  bootstrapped_ = true;
  topo_cache_.UpsertHost(self_);
  if (bootstrap.controller_location.mac != 0) {
    topo_cache_.UpsertHost(bootstrap.controller_location);
  }
  if (controller_mac_ != mac_) {
    // Warm a real path-graph-backed route to the controller so control traffic
    // fails over like data traffic (see SendToController).
    RequestPath(controller_mac_);
  }
  if (bootstrap.directory != nullptr) {
    // Shared, not copied: every host bootstrapped from one controller directory
    // holds the same vector as its host base.
    topo_cache_.UpsertHosts(bootstrap.directory);
    ComputeGossipPeers(*bootstrap.directory);
  }
  // Anything queued before bootstrap can now be routed or requested — in MAC
  // order, so the resulting events are independent of hash-table layout.
  std::vector<uint64_t> queued;
  queued.reserve(pending_.size());
  // dn-lint: allow(unordered-iter, order erased by the sort below)
  for (const auto& [dst, queue] : pending_) {
    if (!queue.empty()) {
      queued.push_back(dst);
    }
  }
  std::sort(queued.begin(), queued.end());
  for (uint64_t dst : queued) {
    if (RouteOrAsk(dst)) {
      FlushPending(dst);
    }
  }
}

void HostAgent::ComputeGossipPeers(const HostDirectory& directory) {
  gossip_peers_.clear();
  // All hosts on our own switch ("starts from the hosts on the same switch"),
  // read from the directory's per-switch index.
  for (uint32_t pos : directory.On(self_.switch_uid)) {
    if (directory[pos].mac != mac_) {
      gossip_peers_.push_back(directory[pos]);
    }
  }
  // Plus `gossip_fanout` ring successors by MAC order, skipping same-switch hosts
  // (already peers). The ring guarantees the flood reaches every switch. The
  // directory is MAC-sorted, so the ring is the directory itself.
  const size_t n = directory.size();
  const size_t start = directory.LowerBound(mac_);
  const bool self_at_start = start < n && directory[start].mac == mac_;
  uint32_t added = 0;
  for (size_t k = 0; k < n && added < config_.gossip_fanout; ++k) {
    const HostLocation& loc = directory[(start + k + (self_at_start ? 1 : 0)) % n];
    if (loc.mac == mac_ || loc.switch_uid == self_.switch_uid) {
      continue;
    }
    gossip_peers_.push_back(loc);
    ++added;
    // Warm the route to this ring peer so failure floods do not stall on a
    // controller query.
    RequestPath(loc.mac);
  }
}

bool HostAgent::RouteOrAsk(uint64_t dst_mac) {
  if (InstallRoutesFor(dst_mac).ok()) {
    return true;
  }
  RequestPath(dst_mac);
  return false;
}

uint64_t HostAgent::RequestKey(uint64_t dst_mac) const {
  // Host MACs are 48-bit and switch UIDs carry a high tag byte (Topology's
  // ID plan), so the two key spaces do not meet.
  auto loc = topo_cache_.Locate(dst_mac);
  return loc.ok() ? loc.value().switch_uid : dst_mac;
}

void HostAgent::RequestPath(uint64_t dst_mac) {
  const uint64_t key = RequestKey(dst_mac);
  DN_FP_COMMUTES(kHost, footprint::FpKey(mac_, key, kSaltOutstanding), kFpRequestDedup);
  if (!bootstrapped_ || request_key_of_.count(dst_mac) > 0) {
    return;
  }
  // The controller answers with a switch-level path graph and the host adds
  // the last hop from its directory (Sections 4.3, 5.2), so one answer routes
  // every host behind the destination switch: later destinations join as
  // waiters instead of asking again.
  auto [it, inserted] = path_requests_.try_emplace(key);
  std::vector<uint64_t>& waiters = it->second.waiters;
  if (std::find(waiters.begin(), waiters.end(), dst_mac) == waiters.end()) {
    waiters.push_back(dst_mac);
  }
  if (!inserted) {
    return;
  }
  it->second.named_mac = dst_mac;
  request_key_of_.emplace(dst_mac, key);
  SendPathRequest(key);
}

void HostAgent::SendPathRequest(uint64_t key) {
  PathRequest& req = path_requests_.at(key);
  ++stats_.path_requests;
  DN_COUNTER_INC("host.path_requests");
  (void)SendToController(PathRequestPayload{mac_, req.named_mac, req.attempt});
  // Exponential backoff, capped at 16 request timeouts, plus up to a quarter
  // more of jitter. The jitter hashes (seed, host, key, attempt) rather than
  // drawing from a stream, so a retry shifts no other random choice.
  const TimeNs backoff = config_.request_timeout << std::min<uint64_t>(req.attempt, 4);
  const uint64_t span = static_cast<uint64_t>(backoff / 4) + 1;
  const TimeNs jitter = static_cast<TimeNs>(
      footprint::FpKey(footprint::FpKey(config_.rng_seed, mac_), key, req.attempt) % span);
  req.retry = sim_->ScheduleAfter(backoff + jitter, [this, key] { RetryPathRequest(key); });
}

void HostAgent::RetryPathRequest(uint64_t key) {
  DN_FP_SCOPE("host.path_retry", mac_);
  DN_FP_COMMUTES(kHost, footprint::FpKey(mac_, key, kSaltOutstanding), kFpRequestDedup);
  auto it = path_requests_.find(key);
  DUMBNET_ASSERT(it != path_requests_.end(), "path-request retry outlived its request");
  PathRequest& req = it->second;
  if (++req.attempt < kMaxPathRequestRetries) {
    SendPathRequest(key);
    return;
  }
  // Retries exhausted: drop every waiter's parked packets.
  for (uint64_t dst : req.waiters) {
    pending_.erase(dst);
    ++stats_.path_giveups;
    DN_COUNTER_INC("host.path_giveups");
    DN_WARN << "host " << mac_ << ": giving up on path to " << dst;
  }
  request_key_of_.erase(req.named_mac);
  path_requests_.erase(it);
}

void HostAgent::AnswerPathRequest(uint64_t dst_mac) {
  // A late copy of an answered request finds no entry and only installs its
  // own MAC; the key it recomputes names the footprint cell, nothing else.
  auto named = request_key_of_.find(dst_mac);
  const uint64_t key = named != request_key_of_.end() ? named->second : RequestKey(dst_mac);
  DN_FP_COMMUTES(kHost, footprint::FpKey(mac_, key, kSaltOutstanding), kFpRequestDedup);
  std::vector<uint64_t> waiters;
  if (named != request_key_of_.end()) {
    request_key_of_.erase(named);
    auto it = path_requests_.find(key);
    sim_->Cancel(it->second.retry);
    waiters = std::move(it->second.waiters);
    path_requests_.erase(it);
  }
  if (InstallRoutesFor(dst_mac).ok()) {
    FlushPending(dst_mac);
  }
  // Siblings behind the same switch route from the merged graph; only those
  // the cache still cannot route ask again.
  std::sort(waiters.begin(), waiters.end());
  for (uint64_t waiter : waiters) {
    if (waiter != dst_mac && RouteOrAsk(waiter)) {
      FlushPending(waiter);
    }
  }
}

Status HostAgent::InstallRoutesFor(uint64_t dst_mac) {
  // Commutes: the installed entry is recomputed from the (order-converged) topo
  // cache, so concurrent recomputes for one destination land on the same routes.
  DN_FP_COMMUTES(kPathTable, footprint::FpKey(mac_, dst_mac), kFpRouteRecompute);
  const TopoCache::RouteStats before = topo_cache_.route_stats();
  auto routes = topo_cache_.ComputeRoutes(self_.switch_uid, dst_mac, config_.k_paths);
  const uint64_t runs = topo_cache_.route_stats().ksp_runs - before.ksp_runs;
  const uint64_t hits = topo_cache_.route_stats().ksp_memo_hits - before.ksp_memo_hits;
  stats_.ksp_runs += runs;
  stats_.ksp_memo_hits += hits;
  DN_COUNTER_INC_N("host.ksp_runs", runs);
  DN_COUNTER_INC_N("host.ksp_memo_hits", hits);
  if (!routes.ok()) {
    return routes.error();
  }
  PathTableEntry entry;
  // ComputeRoutes located the destination, so this lookup succeeds.
  entry.dst = topo_cache_.Locate(dst_mac).value();
  // ComputeRoutes compiled these over the mirror's up links: trusted as is.
  entry.paths = std::move(routes.value());
  path_table_.Install(dst_mac, std::move(entry));
  return Status::Ok();
}

size_t HostAgent::parked_packets() const {
  size_t parked = 0;
  // dn-lint: allow(unordered-iter, a sum does not depend on the order)
  for (const auto& [dst, queue] : pending_) {
    parked += queue.size();
  }
  return parked;
}

void HostAgent::FlushPending(uint64_t dst_mac) {
  auto it = pending_.find(dst_mac);
  if (it == pending_.end()) {
    return;
  }
  std::deque<Packet> queue = std::move(it->second);
  pending_.erase(it);
  for (Packet& pkt : queue) {
    const auto* data = pkt.As<DataPayload>();
    uint64_t flow_id = data != nullptr ? data->flow_id : 0;
    auto route = path_table_.RouteFor(dst_mac, flow_id);
    if (!route.ok()) {
      continue;
    }
    pkt.SetPath(route.value()->tags);
    if (telemetry::Enabled()) {
      pkt.provenance.Arm(route.value()->uid_path);
    }
    ++stats_.data_sent;
    DN_COUNTER_INC("host.data_sent");
    DN_TRACE_EVENT(kHost, kSend, sim_->Now(), mac_, flow_id);
    ScheduleSend(std::move(pkt));
  }
}

}  // namespace dumbnet
