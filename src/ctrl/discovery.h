// Topology discovery service (paper Section 4.1). Runs on the controller host and
// discovers the entire fabric — switches, links, hosts — purely with source-routed
// probe messages through the dumb switches:
//
//   * attach probe   [0, p, ø]               — find our own port and switch ID
//   * host probe     F + [p] + R + [ø]       — a host at X.p replies along R
//   * link probe     F + [p, 0, q] + R + [ø] — the switch at X.p replies its ID out
//                                              port q; if q leads back to X the
//                                              reply rides R to us
//   * verify probe   F + [p, q, 0] + R + [ø] — resolve return-path ambiguity: the
//                                              switch behind N.q must be X itself
//
// where F is the tag path controller→X and R the tag path X→controller. The
// breadth-first expansion sends O(P^2) probes per switch, matching the paper's
// complexity analysis, and all controller work is paced through a single-server CPU
// model (the paper's stated bottleneck for discovery time).
#ifndef DUMBNET_SRC_CTRL_DISCOVERY_H_
#define DUMBNET_SRC_CTRL_DISCOVERY_H_

#include <cstdint>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/ctrl/cpu_queue.h"
#include "src/host/host_agent.h"
#include "src/routing/topo_db.h"

namespace dumbnet {

struct DiscoveryConfig {
  // Highest port number to probe ("we can pass the maximum number of ports to the
  // discovery process as an argument").
  uint8_t max_ports = 64;
  // Controller CPU cost to emit / to process one PM. Discovery time scales with
  // these (Figure 8); calibrated so a 500-switch / 64-port network discovers in
  // the paper's ~70 s.
  TimeNs pm_send_cost = Us(30);
  TimeNs pm_recv_cost = Us(30);
  // A probe with no answer after this long is considered lost (unwired port).
  TimeNs probe_timeout = Ms(200);
};

struct DiscoveryStats {
  uint64_t probes_sent = 0;
  uint64_t replies_received = 0;
  uint64_t bounces = 0;
  uint64_t verifies_sent = 0;
  uint64_t rejected_wandered = 0;  // host replies with mismatched reply path
  uint64_t rejected_ambiguous = 0; // candidates whose verification failed
  TimeNs started_at = 0;
  TimeNs finished_at = 0;
};

class DiscoveryService {
 public:
  DiscoveryService(HostAgent* agent, DiscoveryConfig config = DiscoveryConfig());

  // Begins discovery; `on_complete` fires once the BFS has quiesced.
  void Start(std::function<void()> on_complete);

  // Re-probes a single port of a known switch (used after a link-up notification:
  // "the controller will probe the ports to discover and verify the newly added
  // links"). `done` fires when the probes quiesce.
  void ReprobePort(uint64_t uid, PortNum port, std::function<void()> done = nullptr);

  bool complete() const { return complete_; }
  const DiscoveryStats& stats() const { return stats_; }

  // The discovered fabric (valid once complete, usable incrementally before).
  TopoDb& db() { return db_; }
  const TopoDb& db() const { return db_; }

  // Controller's own attach point (valid once the attach phase resolves).
  uint64_t attach_switch_uid() const { return attach_uid_; }
  PortNum attach_port() const { return attach_port_; }

 private:
  enum class ProbeKind : uint8_t { kAttach, kHost, kLink, kVerify };

  struct ProbeCtx {
    ProbeKind kind;
    uint64_t x_uid = 0;  // switch being expanded
    PortNum p = 0;       // port on X under probe
    PortNum q = 0;       // candidate return port on the neighbor
    uint64_t n_uid = 0;  // neighbor id (verify probes only)
  };

  struct SwitchRecord {
    TagList forward;  // controller's switch -> this switch (ø excluded)
    TagList ret;      // this switch -> controller host (ø excluded)
    bool expanded = false;
  };

  // What a reply job reads of the packet that reached the controller.
  enum class ReplyKind : uint8_t { kNone, kSwitchId, kHost, kBounce };
  struct Reply {
    uint64_t probe_id = 0;
    uint64_t uid = 0;  // the replying switch (kSwitchId) or host MAC (kHost)
    ReplyKind kind = ReplyKind::kNone;
    bool echoes_return_path = false;  // kHost: the echoed path is exactly R + ø
  };

  // The probe's tag stack (ø excluded), from the records of the switches it
  // names: fixed once the probe is queued, so it is built when it is sent.
  TagList ProbeTags(const ProbeCtx& ctx) const;
  void SendProbe(const ProbeCtx& ctx);
  // The host probe and the link probes for every candidate return port q.
  void ProbePort(uint64_t uid, PortNum p);
  void HandleProbeEvent(const Packet& pkt);
  void HandleReply(const Reply& reply);
  void HandleAttachReply(const ProbeCtx& ctx, uint64_t switch_uid);
  void HandleLinkReply(const ProbeCtx& ctx, uint64_t n_uid);
  void HandleVerifyReply(const ProbeCtx& ctx, uint64_t replied_uid);
  void ExpandSwitch(uint64_t uid);
  void MaybeFinish();

  HostAgent* agent_;
  Simulator* sim_;
  DiscoveryConfig config_;
  TopoDb db_;

  uint64_t next_probe_id_ = 1;
  std::unordered_map<uint64_t, ProbeCtx> inflight_;
  std::unordered_map<uint64_t, SwitchRecord> switches_;
  // Ports already bound to a confirmed link: keys (uid << 8 | port).
  std::unordered_set<uint64_t> bound_ports_;
  uint64_t attach_uid_ = 0;
  PortNum attach_port_ = 0;
  bool attach_resolved_ = false;
  bool complete_ = false;
  CpuQueue cpu_;
  std::function<void()> on_complete_;
  DiscoveryStats stats_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_CTRL_DISCOVERY_H_
