// HostAgent: the DumbNet host stack (paper Sections 4 and 5). One per host. It
// owns the data path (tag push/pop, ø validation), the two-level path cache
// (TopoCache + PathTable), failure handling (fabric notifications + host-to-host
// flooding + failover) and the client side of the controller protocol.
//
// Control-plane services that *run on* a host (the controller, the discovery
// prober) plug in through SetControlHandler / the probe callbacks rather than
// subclassing, mirroring the paper's service-daemon architecture.
#ifndef DUMBNET_SRC_HOST_HOST_AGENT_H_
#define DUMBNET_SRC_HOST_HOST_AGENT_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/host/path_table.h"
#include "src/host/path_verifier.h"
#include "src/host/topo_cache.h"
#include "src/net/network.h"
#include "src/net/packet.h"
#include "src/sim/simulator.h"

namespace dumbnet {

struct HostAgentConfig {
  // k shortest paths cached per destination (Section 5.2).
  uint32_t k_paths = 4;
  // Ring-gossip fanout for host-to-host failure flooding (in addition to all
  // same-switch hosts).
  uint32_t gossip_fanout = 3;
  // Host-side per-packet processing cost (DPDK pipeline).
  TimeNs process_delay = Us(2);
  // Re-issue a path request if unanswered for this long; each further retry
  // doubles the wait, up to 16x, plus seeded jitter.
  TimeNs request_timeout = Ms(50);
  uint64_t rng_seed = 42;
};

struct HostAgentStats {
  uint64_t data_sent = 0;
  uint64_t data_received = 0;
  uint64_t data_blocked = 0;       // queued waiting for a path
  uint64_t path_requests = 0;
  uint64_t path_responses = 0;
  uint64_t path_giveups = 0;       // retries exhausted; queued packets dropped
  uint64_t probes_replied = 0;
  uint64_t port_events_seen = 0;   // deduplicated fabric notifications
  uint64_t link_events_seen = 0;   // deduplicated host-flood events
  uint64_t patches_applied = 0;
  uint64_t floods_sent = 0;
  uint64_t dropped_malformed = 0;
  uint64_t verify_failures = 0;    // SendOnPath routes the PathVerifier rejected
  uint64_t link_repairs = 0;       // RepairAfterLinkChange invocations
  uint64_t reroutes = 0;           // flows moved to a new route by a repair
  uint64_t path_divergence = 0;    // provenance mismatches on received data
  uint64_t ksp_runs = 0;           // route installs that ran Yen on the topo cache
  uint64_t ksp_memo_hits = 0;      // route installs that reused a memoized Yen run
  uint64_t notifications_delayed = 0;  // chaos interceptor deferred a copy
  uint64_t notifications_dropped = 0;  // chaos interceptor ate a copy
};

class HostAgent : public NetNode {
 public:
  // Copies of one path request sent before the host gives up on it.
  static constexpr uint64_t kMaxPathRequestRetries = 10;

  HostAgent(Network* net, uint32_t host_index, HostAgentConfig config = HostAgentConfig());

  // --- Identity ----------------------------------------------------------------
  uint64_t mac() const { return mac_; }
  uint32_t host_index() const { return host_index_; }
  bool bootstrapped() const { return bootstrapped_; }
  const HostLocation& self_location() const { return self_; }

  // --- Data path -----------------------------------------------------------------
  // Sends application data to `dst_mac`. Uses the cached route bound to `flow_id`;
  // a PathTable miss is routed from the TopoCache when it can be, and otherwise
  // the packet is queued and a path request goes to the controller.
  Status Send(uint64_t dst_mac, uint64_t flow_id, DataPayload payload);

  // Delivered application data (tags fully consumed, ø checked and removed).
  using DataHandler = std::function<void(const Packet&, const DataPayload&)>;
  void SetDataHandler(DataHandler handler) { data_handler_ = std::move(handler); }

  // Pluggable routing function (Section 6.1): flowlet TE installs one.
  void SetRouteChooser(PathTable::RouteChooser chooser);

  // Rebinds a flow on its next packet (flowlet boundary).
  void RebindFlow(uint64_t dst_mac, uint64_t flow_id) {
    path_table_.ClearBinding(dst_mac, flow_id);
  }

  // Asks the controller for a route to `dst_mac` without parking a packet (the
  // gossip-peer and controller warm-ups do this). It records `dst_mac` as a
  // waiter on the outstanding request for the destination's switch, and sends
  // that request only when none is outstanding; the answer installs routes
  // for every waiter.
  void RequestPath(uint64_t dst_mac);

  // Application-supplied explicit route (verified before use).
  Status SendOnPath(uint64_t dst_mac, const std::vector<uint64_t>& uid_path,
                    DataPayload payload);

  // --- Raw sends (control plane, discovery) ---------------------------------------
  // Sends a payload with explicit tags (ø appended internally).
  void SendTags(const TagList& tags, uint64_t dst_mac, Payload payload);
  Status SendToController(Payload payload);

  // --- Bootstrap -------------------------------------------------------------------
  // Normally arrives from the controller; also callable directly in tests.
  // Idempotent: a bootstrap equal to the one already applied (a controller
  // resend) changes nothing. A first bootstrap always sends a path request
  // for the controller, and that request is what acknowledges it.
  void ApplyBootstrap(const BootstrapInfo& bootstrap);

  // --- Control-plane plug-ins --------------------------------------------------------
  // A service on this host (controller) sees every control payload first; return
  // true to consume it.
  using ControlHandler = std::function<bool(const Packet&)>;
  void SetControlHandler(ControlHandler handler) { control_handler_ = std::move(handler); }

  // Discovery prober hooks: invoked for id replies / probe replies / own bounced
  // probes addressed to this host.
  using ProbeEventHandler = std::function<void(const Packet&)>;
  void SetProbeEventHandler(ProbeEventHandler handler) {
    probe_event_handler_ = std::move(handler);
  }

  // --- Failure handling hooks (experiments measure these) ---------------------------
  // Called once per *new* link event, with the source (fabric broadcast vs host
  // flood) and the event's origin timestamp.
  using LinkEventHook = std::function<void(const LinkEventPayload&, bool from_fabric)>;
  void SetLinkEventHook(LinkEventHook hook) { link_event_hook_ = std::move(hook); }
  using PatchHook = std::function<void(const TopologyPatchPayload&)>;
  void SetPatchHook(PatchHook hook) { patch_hook_ = std::move(hook); }

  // --- Chaos injection (adversarial notification delivery) --------------------------
  // Inspects every link-state notification copy (fabric port event or gossip
  // flood) before the agent processes it. Return 0 to process immediately, a
  // positive delay in ns to defer processing (delayed copies re-enter the normal
  // dedup/LWW pipeline, so reordering against other events is fair game), or
  // kDropNotification to drop this copy outright. The interceptor MUST be a pure
  // (seeded) function of its arguments — any hidden shared state would break
  // bit-for-bit reproducibility.
  static constexpr TimeNs kDropNotification = -1;
  using NotificationInterceptor =
      std::function<TimeNs(const LinkEventPayload&, bool from_fabric)>;
  void SetNotificationInterceptor(NotificationInterceptor f) {
    notification_interceptor_ = std::move(f);
  }

  // --- NetNode ------------------------------------------------------------------------
  // The fabric's delivery: a packet for this host keeps its body, and the
  // handle moves into its deliver event; a notification is read in place.
  void Receive(PooledPacket pkt, PortNum in_port) override;
  // Packets handed over by value are parked first, then take the path above.
  void HandlePacket(const Packet& pkt, PortNum in_port) override;
  void HandlePacket(Packet&& pkt, PortNum in_port) override;

  // --- Introspection -------------------------------------------------------------------
  TopoCache& topo_cache() { return topo_cache_; }
  PathTable& path_table() { return path_table_; }
  const HostAgentStats& stats() const { return stats_; }
  Network& net() { return *net_; }
  Simulator& sim() { return *sim_; }
  const std::vector<HostLocation>& gossip_peers() const { return gossip_peers_; }
  const HostAgentConfig& config() const { return config_; }
  // Packets parked on a cache miss, waiting for the controller's answer.
  size_t parked_packets() const;

  // Floods a link event to gossip peers (also used by the controller service to
  // disseminate patches). `exclude_mac` suppresses the echo back to the sender.
  void FloodToPeers(const Payload& payload, uint64_t exclude_mac);

  // Applies a topology patch to the local caches and re-floods it; entry point
  // both for patches arriving off the wire and for a co-located controller
  // injecting the patch it just built. `from_mac` is excluded from the re-flood.
  void ApplyPatchLocally(const TopologyPatchPayload& patch, uint64_t from_mac);

 private:
  void DeliverLocal(const Packet& pkt);
  // A probe arriving mid-path (tags left): reply along them.
  void HandleTransitProbe(Packet&& pkt);
  // Hands `pkt` to the NIC after the processing delay: every packet this host
  // originates leaves through here.
  void ScheduleSend(Packet&& pkt);
  // Interceptor gate: consults notification_interceptor_ (drop / delay / pass)
  // and forwards surviving copies to ProcessLinkStateNow.
  void ProcessLinkState(uint64_t switch_uid, PortNum port, bool up, TimeNs origin_time,
                        uint64_t event_id, bool from_fabric, uint64_t from_mac);
  // The actual pipeline: dedup, LWW merge, repair, flood, controller hand-off.
  void ProcessLinkStateNow(uint64_t switch_uid, PortNum port, bool up, TimeNs origin_time,
                           uint64_t event_id, bool from_fabric, uint64_t from_mac);
  void RepairAfterLinkChange(uint64_t uid_a, uint64_t uid_b);
  // Last-writer-wins link-observation merge. `cell` names one physical link (the
  // normalized endpoint-uid pair when the edge is cached, the (switch, port)
  // fallback when not); the merge key is (origin_time << 1) | up, so the freshest
  // origin wins and "up" wins a same-instant tie. Returns true when this
  // observation is fresher than everything recorded for the cell — the caller
  // should apply it — and false for stale/duplicate observations. Because the
  // merged state is the max over a join-semilattice, the surviving state is
  // independent of arrival order: this is what makes gossip floods and patch
  // application commute.
  bool RecordLinkObservation(uint64_t cell, bool up, TimeNs origin_time);
  // The step behind every PathTable miss: install routes for `dst_mac` from the
  // TopoCache, and only when the cache cannot route it, ask the controller.
  // Returns true when routes were installed.
  bool RouteOrAsk(uint64_t dst_mac);
  // The destination's switch UID from the directory, or the MAC itself when
  // the directory does not place the host.
  uint64_t RequestKey(uint64_t dst_mac) const;
  // Sends the request's current attempt and arms its retry timer.
  void SendPathRequest(uint64_t key);
  void RetryPathRequest(uint64_t key);
  // A response naming `dst_mac` arrived: resolve the request it answers and
  // route (or re-ask for) every waiter.
  void AnswerPathRequest(uint64_t dst_mac);
  void FlushPending(uint64_t dst_mac);
  void ComputeGossipPeers(const HostDirectory& directory);
  // True when `bootstrap` says what this host already applied.
  bool HoldsBootstrap(const BootstrapInfo& bootstrap) const;
  Status InstallRoutesFor(uint64_t dst_mac);

  // One outstanding controller question per request key (RequestKey).
  struct PathRequest {
    uint64_t named_mac = 0;  // the destination the query names
    uint64_t attempt = 0;    // of the last copy sent
    // Every destination the answer should route, named_mac included; bare
    // warm-ups with no parked packet wait here too.
    std::vector<uint64_t> waiters;
    EventHandle retry;  // cancelled when the answer arrives
  };

  Network* net_;
  Simulator* sim_;
  // The network's packet-body pool: every packet this host sends is parked
  // here once, so its send event carries an 8-byte handle.
  PacketPool* packets_;
  uint32_t host_index_;
  uint64_t mac_;
  HostAgentConfig config_;

  bool bootstrapped_ = false;
  HostLocation self_;
  uint64_t controller_mac_ = 0;
  TagList controller_tags_;  // ø excluded

  TopoCache topo_cache_;
  PathTable path_table_;

  DataHandler data_handler_;
  ControlHandler control_handler_;
  ProbeEventHandler probe_event_handler_;
  LinkEventHook link_event_hook_;
  PatchHook patch_hook_;
  NotificationInterceptor notification_interceptor_;

  std::vector<HostLocation> gossip_peers_;
  std::unordered_map<uint64_t, std::deque<Packet>> pending_;  // dst -> queued packets
  std::unordered_map<uint64_t, PathRequest> path_requests_;  // request key -> request
  // Named MAC -> request key. A response is matched through the MAC it names,
  // never through a key recomputed after Integrate, which can move the host.
  std::unordered_map<uint64_t, uint64_t> request_key_of_;
  std::unordered_set<uint64_t> seen_events_;   // link-event dedup
  std::unordered_set<uint64_t> seen_patches_;  // patch re-flood dedup, by seq
  // Per-link freshest observation key, see RecordLinkObservation.
  std::unordered_map<uint64_t, uint64_t> link_obs_key_;

  HostAgentStats stats_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_HOST_HOST_AGENT_H_
