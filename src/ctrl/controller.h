// ControllerService (paper Sections 4.2, 4.3): the centralized control plane. Runs
// on one host. Maintains the global topology database, answers path queries with
// path graphs, bootstraps hosts after discovery, and implements stage 2 of failure
// handling (the asynchronous topology patch flood). Optionally mirrors every
// topology event into a ReplicatedLog so standby controllers stay consistent
// (the paper uses ZooKeeper for this).
#ifndef DUMBNET_SRC_CTRL_CONTROLLER_H_
#define DUMBNET_SRC_CTRL_CONTROLLER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/ctrl/discovery.h"
#include "src/ctrl/replicated_log.h"
#include "src/host/host_agent.h"
#include "src/routing/path_graph.h"
#include "src/routing/sssp_cache.h"
#include "src/routing/topo_db.h"

namespace dumbnet {

struct ControllerConfig {
  PathGraphParams path_graph;
  // Ablation knobs: strip the detour subgraph from responses; without it,
  // `send_backup` decides whether the backup path's links still ride along
  // (both off leaves a plain single-route cache at the hosts).
  bool send_detours = true;
  bool send_backup = true;
  // Controller CPU time to serve one path query or to compile one bootstrap
  // (both share the controller's single-server queue): sets how long a cold
  // query waits behind a backlog, and the bring-up's bootstrap pace.
  TimeNs query_cost = Us(30);
  // Aggregation window before flooding a topology patch (stage 2).
  TimeNs patch_aggregation = Ms(2);
  uint64_t rng_seed = 7;
};

struct ControllerStats {
  uint64_t queries_served = 0;
  uint64_t queries_failed = 0;
  // Copies of a query that arrived while the same (requester, dst) query was
  // still queued: merged into it, no CPU charged (see HandleControl).
  uint64_t queries_coalesced = 0;
  uint64_t bootstraps_sent = 0;   // originals and resends, once each
  uint64_t bootstrap_resends = 0;
  uint64_t link_events = 0;
  uint64_t patches_sent = 0;
  uint64_t reprobes = 0;
  // Served-wire-graph memoization (see ServePathRequest).
  uint64_t wire_cache_hits = 0;
  uint64_t wire_cache_misses = 0;
};

class ControllerService {
 public:
  ControllerService(HostAgent* agent, ControllerConfig config = ControllerConfig(),
                    DiscoveryConfig discovery_config = DiscoveryConfig());

  // Full bring-up: run discovery, then bootstrap every host. `on_ready` fires
  // once the bootstraps are queued and the controller serves queries; the
  // bootstraps themselves leave as the uplink has room (see PumpBootstraps).
  void Start(std::function<void()> on_ready);

  // Bench/test path: adopt a ground-truth topology directly (skipping the probing
  // phase) and bootstrap hosts. The controller host is `agent`'s host.
  void AdoptTopology(const Topology& truth);

  // Failover path: a standby promotes itself with a database rebuilt from the
  // replicated log (ReplicatedLog::ApplyTo), re-bootstraps every host (they learn
  // the new controller's identity and path) and starts serving.
  void AdoptDatabase(TopoDb db);

  // Stops serving queries (simulates a controller crash; hosts' requests go
  // unanswered until a standby takes over).
  void Stop() { ready_ = false; }
  bool serving() const { return ready_; }

  // Hosts whose bootstrap has not been acknowledged yet, in MAC order. A
  // host acknowledges its bootstrap with the first path request it sends
  // (HostAgent::ApplyBootstrap always sends one); until then the controller
  // resends it, up to kMaxBootstrapResends times.
  std::vector<uint64_t> unacked_hosts() const;
  static constexpr uint32_t kMaxBootstrapResends = 10;

  TopoDb& db() { return db_; }
  DiscoveryService& discovery() { return discovery_; }
  const ControllerStats& stats() const { return stats_; }

  // Attach a replicated log: every link event and patch is appended (what the
  // paper stores in ZooKeeper for the standby controllers).
  void AttachLog(ReplicatedLog* log) { log_ = log; }

  // Batch path-graph precompute: builds the path graph from `src_mac`'s edge
  // switch to every destination's edge switch in one pass — the primaries share a
  // single cached SSSP tree — and exports each as its wire links plus primary and
  // backup (dumbnet-check's input). Destinations that cannot be served (unknown MAC,
  // disconnected switch) are silently skipped; the returned vector holds one entry
  // per successful destination, in input order. Errors only when `src_mac` itself
  // is unknown.
  Result<std::vector<PathGraphExport>> PrecomputePathGraphs(
      uint64_t src_mac, const std::vector<uint64_t>& dst_macs);

  // Routing-cache observability (tests + benchmarks).
  const SsspCache::Stats& sssp_cache_stats() const { return sssp_cache_.stats(); }

 private:
  // The adjacency snapshot for db_.mirror(), rebuilt only when the db version
  // moved. Valid until the next db_ mutation.
  const SwitchGraph& RoutingGraph();
  // Drops the graph snapshot and all cached SSSP trees. Must be called whenever
  // db_ is *replaced* (version numbering restarts); plain mutations are caught by
  // the version check in RoutingGraph().
  void InvalidateRoutingCaches();
  // Converts a built PathGraph to its wire form under the current config.
  std::shared_ptr<WirePathGraph> MakeWireGraph(const PathGraph& pg, uint64_t src_uid,
                                               uint64_t dst_uid);
  // (requester_mac, dst_mac): a queued path query's exact identity.
  using QueryKey = std::pair<uint64_t, uint64_t>;
  bool HandleControl(const Packet& pkt);
  // Takes the queued query `key` (with its highest attempt) off the queue and
  // answers it.
  void ServePathRequest(QueryKey key);
  void OnLinkEvent(const LinkEventPayload& ev);
  // Arms FlushPatch after the aggregation window unless it is armed.
  void SchedulePatch();
  void FlushPatch();
  // Takes the controller's attach point from db_, bootstraps every host and
  // starts serving.
  void BecomeReady();
  // `loc`'s bootstrap, its path to the controller drawn from rng_; null when
  // the controller cannot route to it yet.
  std::shared_ptr<const BootstrapInfo> MakeBootstrap(const HostLocation& loc);
  // Compiles the path down to `info`'s host, charges one query_cost of CPU
  // and appends it to the pump's FIFO, where it becomes ready when that CPU
  // slot ends. False when the host cannot be routed to.
  bool QueueBootstrap(std::shared_ptr<const BootstrapInfo> info);
  // Sends ready bootstraps from the FIFO head while the controller's uplink
  // queue has room for them; otherwise re-arms for the moment it will.
  void PumpBootstraps();
  // Arms the resend timer when bootstraps are unacked and none is queued.
  void ArmBootstrapResend();
  void ResendBootstraps();
  void AckBootstrap(uint64_t host_mac);
  // Tag path from switch `from_uid` to a host (compiled on the global db). `rng`
  // breaks equal-cost ties: bulk work (bootstraps) passes the shared stream,
  // query serving passes a per-query stream derived from (requester, dst,
  // attempt) so a response's content never depends on service order.
  Result<TagList> TagsTo(uint64_t from_uid, const HostLocation& dst, Rng* rng);
  HostLocation ControllerLocation() const {
    return {agent_->mac(), controller_switch_uid_, controller_port_};
  }

  HostAgent* agent_;
  Simulator* sim_;
  ControllerConfig config_;
  TopoDb db_;
  DiscoveryService discovery_;
  Rng rng_;
  // Serves path queries and compiles bootstraps.
  CpuQueue cpu_;
  ReplicatedLog* log_ = nullptr;

  // Routing caches, all keyed on db_.version() (see RoutingGraph()).
  std::unique_ptr<SwitchGraph> graph_cache_;
  uint64_t graph_version_ = kNoGraphVersion;
  SsspCache sssp_cache_;
  SsspScratch tags_scratch_;
  PathGraphScratch pg_scratch_;
  // Served wire graphs memoized per (src switch, dst switch, attempt), valid for
  // one db version. Hosts behind the same edge switch asking for the same
  // destination switch share one immutable graph object. Bounded by an epoch
  // reset (full clear) at kWireCacheMaxEntries — deterministic, no LRU clocks.
  std::unordered_map<uint64_t, std::shared_ptr<WirePathGraph>> wire_cache_;
  uint64_t wire_cache_version_ = kNoGraphVersion;
  static constexpr size_t kWireCacheMaxEntries = 65536;

  static constexpr uint64_t kNoGraphVersion = UINT64_MAX;

  uint64_t controller_switch_uid_ = 0;
  PortNum controller_port_ = 0;
  bool ready_ = false;
  // Path queries waiting in the CPU queue -> the highest attempt seen for each.
  // An ordered map keyed on the exact MAC pair: no hash, so no collisions.
  std::map<QueryKey, uint64_t> queued_queries_;

  // Bootstrap pump: bootstraps in CPU order. The first `boot_ready_` have
  // finished their CPU slot and wait only for room on the uplink.
  struct OutgoingBootstrap {
    uint64_t mac = 0;
    TagList tags;  // controller -> host, ø excluded
    BootstrapPayload payload;
    int64_t bytes = 0;  // wire size
  };
  std::deque<OutgoingBootstrap> boot_queue_;
  size_t boot_ready_ = 0;
  bool pump_armed_ = false;
  // No send before this: the previous bootstrap is still in the host's send
  // pipeline, where the uplink backlog cannot see it yet.
  TimeNs pump_next_ = 0;
  // Unacknowledged hosts -> the bootstrap to resend (null: not buildable yet).
  std::map<uint64_t, std::shared_ptr<const BootstrapInfo>> unacked_;
  std::shared_ptr<const HostDirectory> boot_directory_;  // held while any is unacked
  EventHandle resend_timer_;  // valid while armed
  uint32_t resend_round_ = 0;

  // Pending patch accumulation.
  std::vector<WireLink> pending_removed_;
  std::vector<WireLink> pending_added_;
  TimeNs pending_origin_ = 0;
  bool patch_scheduled_ = false;
  uint64_t patch_seq_ = 0;

  ControllerStats stats_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_CTRL_CONTROLLER_H_
