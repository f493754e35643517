#include "src/analysis/invariants.h"

#include <algorithm>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace dumbnet {
namespace {

std::string UidName(uint64_t uid) { return "uid=" + std::to_string(uid); }

// Exact-membership hash for (uid, port) keys. AuditWirePathGraph
// runs on every path response during bring-up (~80K calls x ~1K inserts at 16K
// hosts), where ordered sets' rebalancing dominated the whole-run profile;
// hashing is the entire point of this functor existing.
struct U64PairHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
    uint64_t h = p.first * 0x9E3779B97F4A7C15ull;
    h ^= p.second + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
    return static_cast<size_t>(h);
  }
};

}  // namespace

Status AuditTagStack(const TagList& tags, bool expect_terminator, size_t max_depth) {
  if (tags.size() > max_depth) {
    return Error(ErrorCode::kExhausted,
                 "tag stack depth " + std::to_string(tags.size()) +
                     " exceeds header budget " + std::to_string(max_depth));
  }
  if (expect_terminator) {
    if (tags.empty() || tags.back() != kPathEndTag) {
      return Error(ErrorCode::kMalformed, "tag stack not terminated by \xC3\xB8");
    }
  }
  for (size_t i = 0; i < tags.size(); ++i) {
    const PortNum t = tags[i];
    if (t == kPathEndTag) {
      if (!expect_terminator || i + 1 != tags.size()) {
        return Error(ErrorCode::kMalformed,
                     "\xC3\xB8 at position " + std::to_string(i) + " of " +
                         std::to_string(tags.size()) + " (truncated path)");
      }
      continue;
    }
    if (t != kIdQueryTag && t > kMaxPorts) {
      return Error(ErrorCode::kOutOfRange,
                   "tag " + std::to_string(static_cast<int>(t)) + " at position " +
                       std::to_string(i) + " is not a valid port number");
    }
  }
  return Status::Ok();
}

Status AuditWirePathGraph(const WirePathGraph& graph) {
  // Link sanity: no self-links, no two links claiming one (uid, port).
  std::unordered_set<std::pair<uint64_t, uint64_t>, U64PairHash> used_ports;
  used_ports.reserve(graph.links.size() * 2);
  std::unordered_map<uint64_t, std::vector<uint64_t>> adj;
  adj.reserve(graph.links.size() + 1);
  for (const WireLink& l : graph.links) {
    if (l.uid_a == l.uid_b) {
      return Error(ErrorCode::kMalformed, "self-link at " + UidName(l.uid_a));
    }
    for (const auto& [uid, port] : {std::pair<uint64_t, uint64_t>{l.uid_a, l.port_a},
                                    std::pair<uint64_t, uint64_t>{l.uid_b, l.port_b}}) {
      if (!used_ports.insert({uid, port}).second) {
        return Error(ErrorCode::kAlreadyExists,
                     "port conflict: two links claim " + UidName(uid) + " port " +
                         std::to_string(static_cast<int>(port)));
      }
    }
    adj[l.uid_a].push_back(l.uid_b);
    adj[l.uid_b].push_back(l.uid_a);
  }

  // Connectivity: the subgraph the controller hands out is connected (Algorithm 1
  // property), so dst_uid and every link must be reachable from src_uid. A
  // dangling WireLink between switches nothing else references fails here.
  std::unordered_set<uint64_t> reached;
  reached.reserve(adj.size() + 1);
  std::vector<uint64_t> frontier{graph.src_uid};
  reached.insert(graph.src_uid);
  while (!frontier.empty()) {
    uint64_t u = frontier.back();
    frontier.pop_back();
    for (uint64_t v : adj[u]) {
      if (reached.insert(v).second) {
        frontier.push_back(v);
      }
    }
  }
  if (reached.count(graph.dst_uid) == 0) {
    return Error(ErrorCode::kNotFound, "dst " + UidName(graph.dst_uid) +
                                           " unreachable from src " +
                                           UidName(graph.src_uid) + " over the links");
  }
  for (const auto& [uid, peers] : adj) {
    if (reached.count(uid) == 0) {
      return Error(ErrorCode::kMalformed,
                   "dangling link set around " + UidName(uid) +
                       " unreachable from src (disconnected path graph)");
    }
  }
  return Status::Ok();
}

Status AuditPathGraph(const Topology& topo, const PathGraph& pg) {
  auto check_endpoints = [&](const SwitchPath& path, const char* which) {
    if (path.empty()) {
      return Status::Ok();
    }
    if (path.front() != pg.src_switch || path.back() != pg.dst_switch) {
      return Status(Error(ErrorCode::kMalformed,
                          std::string(which) + " endpoints do not match src/dst"));
    }
    return Status::Ok();
  };
  if (Status s = check_endpoints(pg.primary, "primary"); !s.ok()) {
    return s;
  }
  if (Status s = check_endpoints(pg.backup, "backup"); !s.ok()) {
    return s;
  }

  // Primary must be simple: a repeated switch is a routing loop.
  std::set<uint32_t> seen;
  for (uint32_t v : pg.primary) {
    if (!seen.insert(v).second) {
      return Error(ErrorCode::kMalformed,
                   "primary revisits S" + std::to_string(v) + " (loop)");
    }
  }

  const std::set<uint32_t> vertex_set(pg.vertices.begin(), pg.vertices.end());
  for (LinkIndex li : pg.links) {
    if (li >= topo.link_count()) {
      return Error(ErrorCode::kOutOfRange,
                   "link index " + std::to_string(li) + " out of range");
    }
    const Link& l = topo.link_at(li);
    if (l.detached || !l.up) {
      return Error(ErrorCode::kUnavailable,
                   "path graph includes down/detached link " + std::to_string(li));
    }
    if (!l.a.node.is_switch() || !l.b.node.is_switch()) {
      return Error(ErrorCode::kMalformed,
                   "path graph includes host link " + std::to_string(li));
    }
    if (vertex_set.count(l.a.node.index) == 0 || vertex_set.count(l.b.node.index) == 0) {
      return Error(ErrorCode::kMalformed,
                   "link " + std::to_string(li) + " touches a non-vertex (not induced)");
    }
  }
  return Status::Ok();
}

Status AuditCacheCoherence(const TopoCache& cache, const PathTable& table) {
  Status result = Status::Ok();
  table.ForEachEntry([&](uint64_t dst_mac, const PathTableEntry& entry) {
    if (!result.ok()) {
      return;
    }
    auto located = cache.Locate(dst_mac);
    if (!located.ok()) {
      result = Error(ErrorCode::kNotFound,
                     "PathTable entry for mac " + std::to_string(dst_mac) +
                         " has no TopoCache host record");
      return;
    }
    if (!(located.value() == entry.dst)) {
      result = Error(ErrorCode::kMalformed,
                     "PathTable destination for mac " + std::to_string(dst_mac) +
                         " disagrees with TopoCache location (stale entry)");
      return;
    }
    for (const CachedRoute& route : entry.paths) {
      for (uint64_t uid : route.uid_path) {
        if (!cache.db().KnowsSwitch(uid)) {
          result = Error(ErrorCode::kNotFound,
                         "cached route crosses unknown switch " + UidName(uid));
          return;
        }
      }
      // One tag per switch on the path: out-ports for all but the last switch,
      // then the destination host's attach port.
      if (route.tags.size() != route.uid_path.size()) {
        result = Error(ErrorCode::kMalformed,
                       "cached route has " + std::to_string(route.tags.size()) +
                           " tags for " + std::to_string(route.uid_path.size()) +
                           " switches");
        return;
      }
      if (Status s = AuditTagStack(route.tags, /*expect_terminator=*/false); !s.ok()) {
        result = s;
        return;
      }
    }
  });
  return result;
}

Status AuditTopoDbAgainstTruth(const TopoDb& db, const Topology& truth,
                               bool require_fresh_links) {
  const Topology& mirror = db.mirror();
  for (uint32_t i = 0; i < mirror.switch_count(); ++i) {
    const uint64_t uid = db.UidOf(i);
    auto truth_idx = truth.SwitchByUid(uid);
    if (!truth_idx.ok()) {
      return Error(ErrorCode::kNotFound,
                   "database switch " + UidName(uid) + " does not exist in the fabric");
    }
  }
  for (LinkIndex li = 0; li < mirror.link_count(); ++li) {
    const Link& l = mirror.link_at(li);
    if (l.detached || !l.a.node.is_switch() || !l.b.node.is_switch()) {
      continue;
    }
    const uint64_t uid_a = db.UidOf(l.a.node.index);
    const uint64_t uid_b = db.UidOf(l.b.node.index);
    auto ta = truth.SwitchByUid(uid_a);
    auto tb = truth.SwitchByUid(uid_b);
    if (!ta.ok() || !tb.ok()) {
      return Error(ErrorCode::kNotFound, "database link endpoints unknown to fabric");
    }
    LinkIndex truth_li = truth.LinkAtPort(ta.value(), l.a.port);
    if (truth_li == kInvalidLink) {
      if (l.up) {
        return Error(ErrorCode::kNotFound,
                     "database believes " + UidName(uid_a) + " port " +
                         std::to_string(static_cast<int>(l.a.port)) +
                         " is wired; fabric has nothing there");
      }
      continue;  // a down-marked record of an unplugged port is merely stale
    }
    const Link& tl = truth.link_at(truth_li);
    const Endpoint& peer = tl.Peer(NodeId::Switch(ta.value()));
    if (!peer.node.is_switch() || peer.node.index != tb.value() || peer.port != l.b.port) {
      return Error(ErrorCode::kMalformed,
                   "database link " + UidName(uid_a) + "<->" + UidName(uid_b) +
                       " is wired differently in the fabric (port conflict)");
    }
    if (require_fresh_links && l.up && !tl.up) {
      return Error(ErrorCode::kUnavailable,
                   "database believes link " + UidName(uid_a) + "<->" + UidName(uid_b) +
                       " is up; fabric has it down (stale topology)");
    }
  }
  for (const HostLocation& loc : db.Directory()) {
    auto h = truth.HostByMac(loc.mac);
    if (!h.ok()) {
      return Error(ErrorCode::kNotFound,
                   "database host mac=" + std::to_string(loc.mac) + " unknown to fabric");
    }
    auto up = truth.HostUplink(h.value());
    if (!up.ok()) {
      return Error(ErrorCode::kUnavailable,
                   "database host mac=" + std::to_string(loc.mac) + " is detached");
    }
    const uint64_t truth_sw_uid = truth.switch_at(up.value().node.index).uid;
    if (truth_sw_uid != loc.switch_uid || up.value().port != loc.port) {
      return Error(ErrorCode::kMalformed,
                   "database host mac=" + std::to_string(loc.mac) +
                       " located at " + UidName(loc.switch_uid) + " port " +
                       std::to_string(static_cast<int>(loc.port)) +
                       "; fabric attaches it elsewhere");
    }
  }
  return Status::Ok();
}

void RegisterTopologyInvariants(InvariantAuditor& auditor, const Topology* topo) {
  auditor.Register("topology/validate", [topo] { return topo->Validate(); });
}

void RegisterCacheInvariants(InvariantAuditor& auditor, const TopoCache* cache,
                             const PathTable* table, uint32_t host_index) {
  auditor.Register("host" + std::to_string(host_index) + "/cache-coherence",
                   [cache, table] { return AuditCacheCoherence(*cache, *table); });
}

void RegisterTopoDbInvariants(InvariantAuditor& auditor, const TopoDb* db,
                              const Topology* truth) {
  // Structural variant only: periodic audits run while failure notifications may
  // still be in flight, so link freshness is asserted at quiescent points instead.
  auditor.Register("controller/db-vs-truth", [db, truth] {
    return AuditTopoDbAgainstTruth(*db, *truth, /*require_fresh_links=*/false);
  });
}

}  // namespace dumbnet
