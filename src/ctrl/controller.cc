#include "src/ctrl/controller.h"

#include <algorithm>

#include "src/analysis/audit.h"
#include "src/analysis/invariants.h"
#include "src/routing/graph.h"
#include "src/routing/shortest_path.h"
#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace dumbnet {
namespace {

// Footprint entity salts/families for the controller's shared state. Entities are
// keyed by the controller host's mac so concurrent controllers never collide.
constexpr uint64_t kSaltCtrlDbVersion = 0xDBE5;
constexpr uint64_t kSaltCtrlCpu = 0xC901;
constexpr uint64_t kSaltPatchPending = 0x9A5B;
constexpr uint64_t kSaltQueuedQuery = 0x9C0A;
constexpr uint64_t kSaltBootQueue = 0xB0F1;
constexpr uint64_t kSaltUnacked = 0xB0AC;
constexpr uint64_t kSaltResend = 0xB05E;
// Uplink room the bootstrap pump leaves free for path responses and floods
// that reach the NIC while a bootstrap is still in the send pipeline.
constexpr int64_t kPumpHeadroom = 64 * 1024;
constexpr const char kFpQueryCoalesce[] =
    "max-merge of queued query attempts; served content is a function of the attempt";
constexpr const char kFpDbBump[] = "db version bump";
constexpr const char kFpBootFifo[] =
    "bootstrap fifo drained in order; pump timing shifts latency only";
constexpr const char kFpAckSet[] =
    "unacked-host set; an ack racing a resend only duplicates a bootstrap hosts ignore";
constexpr const char kFpPatchAccum[] =
    "patch accumulation; delivery is lww-merged at hosts";

uint64_t CtrlEdgeCell(uint64_t mac, const WireLink& l) {
  return footprint::FpKey(mac, footprint::FpKey(std::min(l.uid_a, l.uid_b),
                                                std::max(l.uid_a, l.uid_b)));
}

uint64_t QueuedQueryCell(uint64_t mac, uint64_t requester_mac, uint64_t dst_mac) {
  return footprint::FpKey(mac, kSaltQueuedQuery, footprint::FpKey(requester_mac, dst_mac));
}

}  // namespace

ControllerService::ControllerService(HostAgent* agent, ControllerConfig config,
                                     DiscoveryConfig discovery_config)
    : agent_(agent),
      sim_(&agent->sim()),
      config_(config),
      discovery_(agent, discovery_config),
      rng_(config.rng_seed),
      cpu_(sim_, footprint::FpKey(agent->mac(), kSaltCtrlCpu)) {
  agent_->SetControlHandler([this](const Packet& pkt) { return HandleControl(pkt); });
}

void ControllerService::Start(std::function<void()> on_ready) {
  discovery_.Start([this, on_ready = std::move(on_ready)] {
    db_ = discovery_.db();  // snapshot; further updates flow through both
    InvalidateRoutingCaches();
    BecomeReady();
    DN_INFO << "controller ready: " << stats_.bootstraps_sent
            << " bootstraps sent, attach uid=" << controller_switch_uid_
            << " port=" << int{controller_port_};
    if (on_ready) {
      on_ready();
    }
  });
}

void ControllerService::AdoptTopology(const Topology& truth) {
  for (LinkIndex li = 0; li < truth.link_count(); ++li) {
    const Link& l = truth.link_at(li);
    if (l.detached) {
      continue;
    }
    if (l.a.node.is_switch() && l.b.node.is_switch()) {
      WireLink wl{truth.switch_at(l.a.node.index).uid, l.a.port,
                  truth.switch_at(l.b.node.index).uid, l.b.port};
      (void)db_.AddLink(wl);
      if (!l.up) {
        db_.SetLinkState(wl.uid_a, wl.port_a, false);
      }
    } else {
      const Endpoint& host_end = l.a.node.is_host() ? l.a : l.b;
      const Endpoint& sw_end = l.a.node.is_host() ? l.b : l.a;
      db_.UpsertHost(HostLocation{truth.host_at(host_end.node.index).mac,
                                  truth.switch_at(sw_end.node.index).uid, sw_end.port});
    }
  }
  BecomeReady();
}

void ControllerService::AdoptDatabase(TopoDb db) {
  db_ = std::move(db);
  InvalidateRoutingCaches();
  BecomeReady();
}

const SwitchGraph& ControllerService::RoutingGraph() {
  if (graph_cache_ == nullptr || graph_version_ != db_.version() ||
      graph_version_ == kNoGraphVersion) {
    graph_cache_ = std::make_unique<SwitchGraph>(db_.mirror());
    graph_version_ = db_.version();
  }
  return *graph_cache_;
}

void ControllerService::InvalidateRoutingCaches() {
  graph_cache_.reset();
  graph_version_ = kNoGraphVersion;
  sssp_cache_.Invalidate();
  wire_cache_.clear();
  wire_cache_version_ = kNoGraphVersion;
}

Result<TagList> ControllerService::TagsTo(uint64_t from_uid, const HostLocation& dst,
                                          Rng* rng) {
  auto src_idx = db_.IndexOf(from_uid);
  auto dst_idx = db_.IndexOf(dst.switch_uid);
  if (!src_idx.ok() || !dst_idx.ok()) {
    return Error(ErrorCode::kNotFound, "source or destination switch unknown");
  }
  // Per-call randomized Dijkstra (scratch-based, so no allocation): response tags
  // must re-randomize on every retry so repeated queries dodge links the
  // controller has not yet learned are dead. The SSSP-tree cache serves only the
  // batch precompute (PrecomputePathGraphs).
  auto path = ShortestPathScaled(RoutingGraph(), src_idx.value(), dst_idx.value(), rng,
                                 tags_scratch_, nullptr);
  if (!path.ok()) {
    return path.error();
  }
  auto tags = db_.CompileTagsForUidPath(db_.PathToUids(path.value()), dst.port);
  if (!tags.ok()) {
    return tags.error();
  }
  return tags.value();
}

void ControllerService::BecomeReady() {
  // Discovery records the controller's own host at its attach point.
  auto self = db_.LocateHost(agent_->mac());
  if (self.ok()) {
    controller_switch_uid_ = self.value().switch_uid;
    controller_port_ = self.value().port;
  }
  // MAC-sorted and indexed by switch once, here: every host adopts this one
  // directory as its shared host base.
  auto directory = std::make_shared<const HostDirectory>(db_.Directory());
  boot_directory_ = directory;
  resend_round_ = 0;
  for (const HostLocation& loc : *directory) {
    if (loc.mac == agent_->mac()) {  // co-located: no path, no ack
      agent_->ApplyBootstrap(
          BootstrapInfo{loc, agent_->mac(), ControllerLocation(), {}, directory});
      continue;
    }
    auto boot = MakeBootstrap(loc);
    unacked_[loc.mac] = boot;
    if (boot != nullptr) {
      (void)QueueBootstrap(std::move(boot));
    }
  }
  if (unacked_.empty()) {
    boot_directory_.reset();
  }
  ArmBootstrapResend();
  ready_ = true;
}

std::shared_ptr<const BootstrapInfo> ControllerService::MakeBootstrap(
    const HostLocation& loc) {
  // Per-host randomized paths, deliberately NOT the shared SSSP tree: each
  // host's stored path-to-controller must be decorrelated from the others', or
  // one link failure strands every host's control channel at once. The cached
  // adjacency snapshot plus scratch still makes this allocation-free.
  auto up_tags = TagsTo(loc.switch_uid, ControllerLocation(), &rng_);
  if (!up_tags.ok()) {
    return nullptr;
  }
  return std::make_shared<const BootstrapInfo>(BootstrapInfo{
      loc, agent_->mac(), ControllerLocation(), std::move(up_tags.value()), boot_directory_});
}

bool ControllerService::QueueBootstrap(std::shared_ptr<const BootstrapInfo> info) {
  auto down_tags = TagsTo(controller_switch_uid_, info->self, &rng_);
  if (!down_tags.ok()) {
    return false;
  }
  ++stats_.bootstraps_sent;
  OutgoingBootstrap out;
  out.mac = info->self.mac;
  out.tags = std::move(down_tags.value());
  out.payload = BootstrapPayload{std::move(info)};
  out.bytes = MakeDumbNetPacket(agent_->mac(), out.mac, out.tags, out.payload).WireSize();
  boot_queue_.push_back(std::move(out));
  cpu_.Run(config_.query_cost, [this] {
    ++boot_ready_;
    PumpBootstraps();
  });
  return true;
}

void ControllerService::PumpBootstraps() {
  DN_FP_SCOPE("ctrl.bootstrap_pump", agent_->mac());
  DN_FP_COMMUTES(kCtrlCpu, footprint::FpKey(agent_->mac(), kSaltBootQueue), kFpBootFifo);
  if (pump_armed_) {
    return;  // the armed pump event sends when there is room
  }
  Network& net = agent_->net();
  const LinkIndex uplink = net.topo().host_at(agent_->host_index()).link;
  const NodeId self = NodeId::Host(agent_->host_index());
  const TimeNs now = sim_->Now();
  while (boot_ready_ > 0) {
    OutgoingBootstrap& head = boot_queue_.front();
    const TimeNs at =
        std::max(pump_next_, net.EgressRoomAt(uplink, self, head.bytes + kPumpHeadroom));
    if (at > now) {
      pump_armed_ = true;
      sim_->ScheduleAt(at, [this] {
        pump_armed_ = false;
        PumpBootstraps();
      });
      return;
    }
    agent_->SendTags(head.tags, head.mac, std::move(head.payload));
    boot_queue_.pop_front();
    --boot_ready_;
    pump_next_ = now + agent_->config().process_delay;
  }
  if (boot_queue_.empty()) {
    ArmBootstrapResend();
  }
}

void ControllerService::ArmBootstrapResend() {
  if (resend_timer_.valid() || unacked_.empty() || !boot_queue_.empty() ||
      resend_round_ >= kMaxBootstrapResends) {
    return;
  }
  // The host's request backoff (HostAgent::SendPathRequest): exponential,
  // capped at 16 request timeouts, plus up to a quarter more of hashed jitter.
  const TimeNs backoff = agent_->config().request_timeout
                         << std::min<uint32_t>(resend_round_, 4);
  const uint64_t span = static_cast<uint64_t>(backoff / 4) + 1;
  const TimeNs jitter = static_cast<TimeNs>(
      footprint::FpKey(footprint::FpKey(config_.rng_seed, agent_->mac()), kSaltResend,
                       resend_round_) %
      span);
  resend_timer_ = sim_->ScheduleAfter(backoff + jitter, [this] { ResendBootstraps(); });
}

void ControllerService::ResendBootstraps() {
  DN_FP_SCOPE("ctrl.bootstrap_resend", agent_->mac());
  DN_FP_COMMUTES(kCtrlCpu, footprint::FpKey(agent_->mac(), kSaltUnacked), kFpAckSet);
  resend_timer_ = EventHandle();
  if (!ready_) {
    return;  // stopped: a crashed controller resends nothing
  }
  ++resend_round_;
  for (auto& [mac, boot] : unacked_) {
    if (boot == nullptr) {
      auto loc = db_.LocateHost(mac);
      if (loc.ok()) {
        boot = MakeBootstrap(loc.value());
      }
    }
    if (boot != nullptr && QueueBootstrap(boot)) {
      ++stats_.bootstrap_resends;
      DN_COUNTER_INC("ctrl.bootstrap_resends");
    }
  }
  ArmBootstrapResend();
}

void ControllerService::AckBootstrap(uint64_t host_mac) {
  DN_FP_COMMUTES(kCtrlCpu, footprint::FpKey(agent_->mac(), kSaltUnacked), kFpAckSet);
  if (unacked_.erase(host_mac) == 0 || !unacked_.empty()) {
    return;
  }
  boot_directory_.reset();  // hosts hold it now
  sim_->Cancel(resend_timer_);
  resend_timer_ = EventHandle();
}

std::vector<uint64_t> ControllerService::unacked_hosts() const {
  std::vector<uint64_t> out;
  out.reserve(unacked_.size());
  for (const auto& [mac, boot] : unacked_) {
    out.push_back(mac);
  }
  return out;
}

bool ControllerService::HandleControl(const Packet& pkt) {
  if (const auto* req = pkt.As<PathRequestPayload>()) {
    AckBootstrap(req->requester_mac);
    if (!ready_) {
      return true;  // swallowed; the host's retry will find us ready
    }
    // A host re-asks every request_timeout while its first copy may still wait
    // behind a backlog. A copy of a query that is already queued is merged into
    // it — no CPU, no event — keeping the highest attempt, so the one answer
    // carries the latest retry's re-randomized route. A copy arriving after its
    // query was served queues (and is served) afresh.
    const QueryKey key{req->requester_mac, req->dst_mac};
    DN_FP_COMMUTES(kCtrlCpu, QueuedQueryCell(agent_->mac(), key.first, key.second),
                   kFpQueryCoalesce);
    auto [queued, inserted] = queued_queries_.emplace(key, req->attempt);
    if (!inserted) {
      queued->second = std::max(queued->second, req->attempt);
      ++stats_.queries_coalesced;
      DN_COUNTER_INC("ctrl.queries_coalesced");
      return true;
    }
    // Service order on the CPU only shifts latency: each query's response
    // content is derived from (requester, dst, attempt), never from the shared
    // rng stream — see ServePathRequest.
    cpu_.Run(config_.query_cost, [this, key] { ServePathRequest(key); });
    return true;
  }
  if (const auto* ev = pkt.As<LinkEventPayload>()) {
    OnLinkEvent(*ev);
    return false;  // the host agent also reacts (it is a host like any other)
  }
  return false;
}

void ControllerService::ServePathRequest(QueryKey key) {
  DN_FP_SCOPE("ctrl.path_serve", key.first);
  DN_FP_COMMUTES(kCtrlCpu, QueuedQueryCell(agent_->mac(), key.first, key.second),
                 kFpQueryCoalesce);
  auto queued = queued_queries_.find(key);
  DUMBNET_ASSERT(queued != queued_queries_.end(), "served a path query that was never queued");
  const PathRequestPayload req{key.first, key.second, queued->second};
  queued_queries_.erase(queued);
  DN_FP_READ(kCtrlDb, footprint::FpKey(agent_->mac(), kSaltCtrlDbVersion));
  auto requester = db_.LocateHost(req.requester_mac);
  auto dst = db_.LocateHost(req.dst_mac);
  if (!requester.ok() || !dst.ok()) {
    ++stats_.queries_failed;
    return;
  }
  auto src_idx = db_.IndexOf(requester.value().switch_uid);
  auto dst_idx = db_.IndexOf(dst.value().switch_uid);
  if (!src_idx.ok() || !dst_idx.ok()) {
    ++stats_.queries_failed;
    return;
  }
  // The served graph's tie-breaks draw from a stream seeded by (src switch,
  // dst switch, attempt) — never the shared rng_, so CPU-queue service order
  // cannot leak into route content. That makes the graph a pure function of
  // (switch pair, attempt, db snapshot), and therefore memoizable: hosts behind
  // the same edge switch asking for the same destination switch get one shared
  // immutable graph. Retries still decorrelate through `attempt`, and response
  // *tags* stay per-requester below.
  const uint32_t si = src_idx.value();
  const uint32_t di = dst_idx.value();
  const bool cacheable =
      si < (1u << 24) && di < (1u << 24) && req.attempt < (1u << 16);
  uint64_t cache_key = 0;
  std::shared_ptr<WirePathGraph> wire;
  if (cacheable) {
    if (wire_cache_version_ != db_.version()) {
      wire_cache_.clear();
      wire_cache_version_ = db_.version();
    }
    cache_key = (static_cast<uint64_t>(si) << 40) | (static_cast<uint64_t>(di) << 16) |
                req.attempt;
    auto it = wire_cache_.find(cache_key);
    if (it != wire_cache_.end()) {
      ++stats_.wire_cache_hits;
      wire = it->second;
    }
  }
  if (wire == nullptr) {
    Rng graph_rng(config_.rng_seed ^
                  footprint::FpKey(requester.value().switch_uid,
                                   dst.value().switch_uid, req.attempt));
    auto pg = BuildPathGraph(db_.mirror(), RoutingGraph(), si, di, config_.path_graph,
                             &graph_rng, pg_scratch_);
    if (!pg.ok()) {
      ++stats_.queries_failed;
      return;
    }
    wire = MakeWireGraph(pg.value(), requester.value().switch_uid,
                         dst.value().switch_uid);
    if (cacheable) {
      ++stats_.wire_cache_misses;
      if (wire_cache_.size() >= kWireCacheMaxEntries) {
        wire_cache_.clear();  // epoch reset: bounded memory, still deterministic
      }
      wire_cache_.emplace(cache_key, wire);
    }
  }

  Rng query_rng(config_.rng_seed ^
                footprint::FpKey(req.requester_mac, req.dst_mac, req.attempt));
  auto tags = TagsTo(controller_switch_uid_, requester.value(), &query_rng);
  if (!tags.ok()) {
    ++stats_.queries_failed;
    return;
  }
  ++stats_.queries_served;
  DN_COUNTER_INC("ctrl.queries_served");
  DN_TRACE_EVENT(kController, kPathServe, sim_->Now(), req.requester_mac, req.dst_mac);
  PathResponsePayload resp{req.dst_mac, dst.value(), std::move(wire)};
  agent_->SendTags(std::move(tags.value()), req.requester_mac, std::move(resp));
}

std::shared_ptr<WirePathGraph> ControllerService::MakeWireGraph(const PathGraph& pg,
                                                                uint64_t src_uid,
                                                                uint64_t dst_uid) {
  auto wire = std::make_shared<WirePathGraph>();
  wire->src_uid = src_uid;
  wire->dst_uid = dst_uid;
  auto push_link = [&](LinkIndex li) {
    const Link& l = db_.mirror().link_at(li);
    wire->links.push_back(WireLink{db_.UidOf(l.a.node.index), l.a.port,
                                   db_.UidOf(l.b.node.index), l.b.port});
  };
  if (config_.send_detours) {
    wire->links.reserve(pg.links.size());
    for (LinkIndex li : pg.links) {
      push_link(li);
    }
  } else {
    // Primary (and optional backup) edges only: no local rerouting material.
    auto push_path_links = [&](const SwitchPath& path) {
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        const SwitchInfo& sw = db_.mirror().switch_at(path[i]);
        for (PortNum p = 1; p <= sw.num_ports; ++p) {
          LinkIndex li = sw.port_link[p];
          if (li == kInvalidLink) {
            continue;
          }
          const Link& l = db_.mirror().link_at(li);
          const Endpoint& peer = l.Peer(NodeId::Switch(path[i]));
          if (l.up && peer.node.is_switch() && peer.node.index == path[i + 1]) {
            push_link(li);
            break;
          }
        }
      }
    };
    push_path_links(pg.primary);
    if (config_.send_backup) {
      push_path_links(pg.backup);
    }
  }

  // What leaves the controller must be a well-formed path graph (Section 4.3);
  // a malformed one silently blackholes the requester's traffic later. The
  // detour-stripped ablation lists a link twice when the backup reuses a
  // primary link, so only audit the complete form.
  DUMBNET_ASSERT(!config_.send_detours || AuditWirePathGraph(*wire).ok(),
                 "controller built a malformed path graph");
  return wire;
}

Result<std::vector<PathGraphExport>> ControllerService::PrecomputePathGraphs(
    uint64_t src_mac, const std::vector<uint64_t>& dst_macs) {
  auto src_host = db_.LocateHost(src_mac);
  if (!src_host.ok()) {
    return src_host.error();
  }
  auto src_idx = db_.IndexOf(src_host.value().switch_uid);
  if (!src_idx.ok()) {
    return src_idx.error();
  }

  // Resolve destinations first; unknown MACs are skipped, not fatal.
  std::vector<uint32_t> dst_switches;
  std::vector<uint64_t> dst_uids;
  dst_switches.reserve(dst_macs.size());
  dst_uids.reserve(dst_macs.size());
  for (uint64_t mac : dst_macs) {
    auto loc = db_.LocateHost(mac);
    if (!loc.ok()) {
      continue;
    }
    auto idx = db_.IndexOf(loc.value().switch_uid);
    if (!idx.ok()) {
      continue;
    }
    dst_switches.push_back(idx.value());
    dst_uids.push_back(loc.value().switch_uid);
  }

  const SwitchGraph& graph = RoutingGraph();
  const SsspTree& tree = sssp_cache_.Get(graph, graph_version_, src_idx.value(), &rng_);
  auto built = BuildPathGraphBatch(db_.mirror(), graph, tree, dst_switches,
                                   config_.path_graph, &rng_);

  std::vector<PathGraphExport> out;
  out.reserve(built.size());
  for (size_t i = 0; i < built.size(); ++i) {
    if (!built[i].ok()) {
      continue;  // e.g. a destination cut off from the source
    }
    const PathGraph& pg = built[i].value();
    out.push_back(PathGraphExport{
        *MakeWireGraph(pg, src_host.value().switch_uid, dst_uids[i]),
        db_.PathToUids(pg.primary),
        config_.send_backup ? db_.PathToUids(pg.backup) : std::vector<uint64_t>()});
  }
  return out;
}

void ControllerService::OnLinkEvent(const LinkEventPayload& ev) {
  ++stats_.link_events;
  DN_COUNTER_INC("ctrl.link_events");
  DN_TRACE_EVENT(kController, kDiscovery, sim_->Now(), ev.switch_uid, ev.port);
  DN_FP_COMMUTES(kCtrlDb, footprint::FpKey(agent_->mac(), kSaltPatchPending),
                 kFpPatchAccum);
  DN_FP_COMMUTES(kCtrlDb, footprint::FpKey(agent_->mac(), kSaltCtrlDbVersion),
                 kFpDbBump);
  if (pending_removed_.empty() && pending_added_.empty()) {
    pending_origin_ = ev.origin_time;
  }
  if (!ev.up) {
    auto link = db_.LinkAt(ev.switch_uid, ev.port);
    if (link.ok()) {
      DN_FP_WRITE(kCtrlDb, CtrlEdgeCell(agent_->mac(), link.value()));
      DN_FP_WRITE(kCtrlLog, CtrlEdgeCell(agent_->mac(), link.value()));
      db_.SetLinkState(ev.switch_uid, ev.port, false);
      discovery_.db().SetLinkState(ev.switch_uid, ev.port, false);
      pending_removed_.push_back(link.value());
      if (log_ != nullptr) {
        log_->Append(TopoEvent{TopoEvent::Kind::kLinkDown, link.value(), {}});
      }
    }
  } else {
    // Link-up: re-probe the port to discover/verify what is now plugged in, then
    // advertise it (Section 4.2, link addition).
    if (discovery_.db().switch_count() == 0) {
      // Adopted-topology mode (no prober): trust the notification for a link we
      // already knew about.
      auto link = db_.LinkAt(ev.switch_uid, ev.port);
      if (link.ok()) {
        DN_FP_WRITE(kCtrlDb, CtrlEdgeCell(agent_->mac(), link.value()));
        db_.SetLinkState(ev.switch_uid, ev.port, true);
        pending_added_.push_back(link.value());
        SchedulePatch();
      }
      return;
    }
    ++stats_.reprobes;
    discovery_.ReprobePort(ev.switch_uid, ev.port, [this, uid = ev.switch_uid,
                                                    port = ev.port] {
      auto link = discovery_.db().LinkAt(uid, port);
      if (!link.ok()) {
        return;
      }
      DN_FP_WRITE(kCtrlDb, CtrlEdgeCell(agent_->mac(), link.value()));
      DN_FP_WRITE(kCtrlLog, CtrlEdgeCell(agent_->mac(), link.value()));
      DN_FP_COMMUTES(kCtrlDb, footprint::FpKey(agent_->mac(), kSaltPatchPending),
                     kFpPatchAccum);
      (void)db_.AddLink(link.value());
      pending_added_.push_back(link.value());
      if (log_ != nullptr) {
        log_->Append(TopoEvent{TopoEvent::Kind::kLinkAdded, link.value(), {}});
      }
      SchedulePatch();
    });
    return;
  }
  SchedulePatch();
}

void ControllerService::SchedulePatch() {
  if (!patch_scheduled_) {
    patch_scheduled_ = true;
    sim_->ScheduleAfter(config_.patch_aggregation, [this] { FlushPatch(); });
  }
}

void ControllerService::FlushPatch() {
  DN_FP_SCOPE("ctrl.patch_flush", agent_->mac());
  DN_FP_COMMUTES(kCtrlDb, footprint::FpKey(agent_->mac(), kSaltPatchPending),
                 kFpPatchAccum);
  patch_scheduled_ = false;
  if (pending_removed_.empty() && pending_added_.empty()) {
    return;
  }
  TopologyPatchPayload patch;
  patch.patch_seq = ++patch_seq_;
  patch.removed =
      std::make_shared<const std::vector<WireLink>>(std::move(pending_removed_));
  patch.added = std::make_shared<const std::vector<WireLink>>(std::move(pending_added_));
  patch.origin_time = pending_origin_;
  pending_removed_.clear();
  pending_added_.clear();
  ++stats_.patches_sent;
  DN_COUNTER_INC("ctrl.patches_sent");
  DN_TRACE_EVENT(kController, kPatch, sim_->Now(), patch.patch_seq,
                 patch.removed->size() + patch.added->size());
  DN_LOG_KV(kInfo, "ctrl.patch")
      .Kv("seq", patch.patch_seq)
      .Kv("removed", patch.removed->size())
      .Kv("added", patch.added->size());
  // Applying locally also starts the host-to-host flood from our gossip peers.
  agent_->ApplyPatchLocally(patch, agent_->mac());
}

}  // namespace dumbnet
