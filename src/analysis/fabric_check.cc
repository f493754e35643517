#include "src/analysis/fabric_check.h"

#include <fstream>
#include <ostream>
#include <set>
#include <sstream>

#include "src/analysis/invariants.h"
#include "src/routing/graph.h"
#include "src/routing/shortest_path.h"
#include "src/topo/serialize.h"
#include "src/util/json.h"

namespace dumbnet {
namespace {

std::string UidName(uint64_t uid) { return "uid=" + std::to_string(uid); }

std::string GraphName(const PathGraphExport& g) {
  return UidName(g.src_uid) + "->" + UidName(g.dst_uid);
}

// Looks up the ground-truth link between (uid_a, port_a) and (uid_b, port_b).
// Returns kInvalidLink when the fabric has no such link or it is wired elsewhere.
LinkIndex TruthLink(const Topology& topo, const WireLink& wl) {
  auto ia = topo.SwitchByUid(wl.uid_a);
  auto ib = topo.SwitchByUid(wl.uid_b);
  if (!ia.ok() || !ib.ok()) {
    return kInvalidLink;
  }
  LinkIndex li = topo.LinkAtPort(ia.value(), wl.port_a);
  if (li == kInvalidLink) {
    return kInvalidLink;
  }
  const Link& l = topo.link_at(li);
  const Endpoint& peer = l.Peer(NodeId::Switch(ia.value()));
  if (!peer.node.is_switch() || peer.node.index != ib.value() || peer.port != wl.port_b) {
    return kInvalidLink;
  }
  return li;
}

// Ground-truth link between two switches: an up one if any, else a down one,
// else kInvalidLink.
LinkIndex TruthEdge(const Topology& topo, uint32_t a, uint32_t b) {
  LinkIndex down = kInvalidLink;
  const SwitchInfo& sw = topo.switch_at(a);
  for (PortNum p = 1; p <= sw.num_ports; ++p) {
    LinkIndex li = sw.port_link[p];
    if (li == kInvalidLink) {
      continue;
    }
    const Link& l = topo.link_at(li);
    if (l.detached) {
      continue;
    }
    const Endpoint& peer = l.Peer(NodeId::Switch(a));
    if (peer.node.is_switch() && peer.node.index == b) {
      if (l.up) {
        return li;
      }
      down = li;
    }
  }
  return down;
}

// Undirected edge key for membership tests (switch uids or indices).
template <typename T>
std::pair<T, T> EdgeKey(T a, T b) {
  return a < b ? std::pair{a, b} : std::pair{b, a};
}

// Hop distances from `src` over `graph`, truncated at `budget`, optionally
// skipping edges whose normalized (index, index) pair is in `excluded`.
// Unreached entries are UINT32_MAX. Small fabrics: a plain vector BFS is fine.
std::vector<uint32_t> BfsWithout(const SwitchGraph& graph, uint32_t src,
                                 uint32_t budget,
                                 const std::set<std::pair<uint32_t, uint32_t>>* excluded) {
  std::vector<uint32_t> dist(graph.size(), UINT32_MAX);
  if (src >= graph.size()) {
    return dist;
  }
  std::vector<uint32_t> frontier = {src};
  dist[src] = 0;
  while (!frontier.empty()) {
    std::vector<uint32_t> next;
    for (uint32_t u : frontier) {
      if (dist[u] >= budget) {
        continue;
      }
      for (const AdjEdge& e : graph.Neighbors(u)) {
        if (excluded != nullptr && excluded->count(EdgeKey(u, e.to)) > 0) {
          continue;
        }
        if (dist[e.to] == UINT32_MAX) {
          dist[e.to] = dist[u] + 1;
          next.push_back(e.to);
        }
      }
    }
    frontier = std::move(next);
  }
  return dist;
}

}  // namespace

std::vector<CheckFinding> CheckTopology(const Topology& topo,
                                        const FabricCheckOptions& opts) {
  (void)opts;
  std::vector<CheckFinding> findings;
  if (Status s = topo.Validate(); !s.ok()) {
    findings.push_back({"topology-invalid", s.error().ToString()});
    return findings;  // deeper checks assume a structurally sound topology
  }

  // Host reachability over up links: every host must have an up uplink, and all
  // uplink switches must sit in one connected component.
  SwitchGraph graph(topo);
  std::vector<uint32_t> dist;
  uint32_t reference_switch = UINT32_MAX;
  for (uint32_t h = 0; h < topo.host_count(); ++h) {
    auto up = topo.HostUplink(h);
    if (!up.ok()) {
      findings.push_back({"host-detached", "H" + std::to_string(h) + " has no uplink"});
      continue;
    }
    const LinkIndex li = topo.host_at(h).link;
    if (!topo.link_at(li).up) {
      findings.push_back(
          {"host-uplink-down", "H" + std::to_string(h) + "'s uplink link is down"});
      continue;
    }
    const uint32_t sw = up.value().node.index;
    if (reference_switch == UINT32_MAX) {
      reference_switch = sw;
      dist = BfsDistances(graph, sw);
      continue;
    }
    if (dist[sw] == UINT32_MAX) {
      findings.push_back({"host-unreachable",
                          "H" + std::to_string(h) + " (S" + std::to_string(sw) +
                              ") cannot reach H0's switch S" +
                              std::to_string(reference_switch) + " over up links"});
    }
  }
  return findings;
}

std::vector<CheckFinding> CheckPathGraphs(const Topology& topo,
                                          const std::vector<PathGraphExport>& graphs,
                                          const FabricCheckOptions& opts) {
  std::vector<CheckFinding> findings;
  const SwitchGraph fabric(topo);

  for (const PathGraphExport& g : graphs) {
    const std::string name = GraphName(g);

    // Well-formedness of the links a host would receive (no port conflicts,
    // connected, dst reachable from src).
    if (Status s = AuditWirePathGraph(g); !s.ok()) {
      findings.push_back({"pathgraph-malformed", name + ": " + s.error().ToString()});
    }
    std::set<std::pair<uint64_t, uint64_t>> listed;
    for (const WireLink& wl : g.links) {
      listed.insert(EdgeKey(wl.uid_a, wl.uid_b));
    }

    // Per path: it runs src to dst over listed links, has no loop, and fits the
    // tag budget (one tag per switch on the path, final host port included, + ø).
    auto check_path = [&](const std::vector<uint64_t>& path, const std::string& which) {
      if (path.empty()) {
        return;
      }
      if (path.front() != g.src_uid || path.back() != g.dst_uid) {
        findings.push_back({"pathgraph-malformed", name + ": " + which + " runs " +
                                                       UidName(path.front()) + ".." +
                                                       UidName(path.back()) +
                                                       ", not src..dst"});
      }
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        if (listed.count(EdgeKey(path[i], path[i + 1])) == 0) {
          findings.push_back({"pathgraph-malformed",
                              name + ": " + which + " hop " + UidName(path[i]) + "->" +
                                  UidName(path[i + 1]) + " has no link in the graph"});
          break;
        }
      }
      std::set<uint64_t> seen;
      for (uint64_t uid : path) {
        if (!seen.insert(uid).second) {
          findings.push_back(
              {which + "-loop", name + ": " + which + " revisits " + UidName(uid)});
          break;
        }
      }
      if (path.size() + 1 > opts.max_tag_depth) {
        findings.push_back(
            {"tag-budget-exceeded",
             name + ": " + which + " needs " + std::to_string(path.size() + 1) +
                 " header bytes, budget is " + std::to_string(opts.max_tag_depth)});
      }
    };
    check_path(g.primary, "primary");
    check_path(g.backup, "backup");

    // Each advertised link must exist in the fabric exactly as described; the
    // confirmed ones form the subgraph the host would cache.
    std::set<uint32_t> members;
    std::vector<LinkIndex> sub_links;
    for (const WireLink& wl : g.links) {
      LinkIndex li = TruthLink(topo, wl);
      if (li == kInvalidLink) {
        findings.push_back(
            {"link-conflict", name + ": advertised link " + UidName(wl.uid_a) + ":" +
                                  std::to_string(static_cast<int>(wl.port_a)) + "<->" +
                                  UidName(wl.uid_b) + ":" +
                                  std::to_string(static_cast<int>(wl.port_b)) +
                                  " is absent or wired differently in the fabric"});
        continue;
      }
      members.insert(topo.SwitchByUid(wl.uid_a).value());
      members.insert(topo.SwitchByUid(wl.uid_b).value());
      sub_links.push_back(li);
    }

    // Map every path uid to a switch index; an unknown uid makes the deeper
    // checks meaningless, so flag it and move on.
    bool uids_ok = true;
    auto indices = [&](const std::vector<uint64_t>& uids, const char* which) {
      std::vector<uint32_t> path;
      path.reserve(uids.size());
      for (uint64_t uid : uids) {
        auto idx = topo.SwitchByUid(uid);
        if (!idx.ok()) {
          findings.push_back({"pathgraph-unknown-switch",
                              name + ": " + which + " mentions " + UidName(uid) +
                                  ", absent from the topology snapshot"});
          uids_ok = false;
          continue;
        }
        path.push_back(idx.value());
      }
      return path;
    };
    const std::vector<uint32_t> primary = indices(g.primary, "primary");
    const std::vector<uint32_t> backup = indices(g.backup, "backup");
    if (!uids_ok) {
      continue;
    }
    members.insert(primary.begin(), primary.end());
    members.insert(backup.begin(), backup.end());

    // Every hop must ride an up link. A down one is named for the failure it
    // is: the primary on a failed link, or the backup sharing the primary's
    // failed link (the exact situation the backup exists to avoid).
    std::set<std::pair<uint32_t, uint32_t>> primary_down;
    auto check_hops = [&](const std::vector<uint32_t>& path,
                          const std::vector<uint64_t>& uids, bool is_primary) {
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        const LinkIndex li = TruthEdge(topo, path[i], path[i + 1]);
        if (li != kInvalidLink && topo.link_at(li).up) {
          continue;
        }
        const auto key = EdgeKey(path[i], path[i + 1]);
        const std::string hop = name + ": " + (is_primary ? "primary" : "backup") +
                                " hop " + UidName(uids[i]) + "->" + UidName(uids[i + 1]);
        if (li == kInvalidLink) {
          findings.push_back({"path-broken-edge", hop + " has no link"});
        } else if (is_primary) {
          primary_down.insert(key);
          findings.push_back({"primary-on-failed-link", hop + " rides a down link"});
        } else if (primary_down.count(key) > 0) {
          findings.push_back(
              {"backup-shares-failed-link", hop + " shares a failed link with the primary"});
        } else {
          findings.push_back({"path-broken-edge", hop + " rides a down link"});
        }
      }
    };
    check_hops(primary, g.primary, true);
    check_hops(backup, g.backup, false);

    if (primary.empty()) {
      continue;  // nothing further to verify without a primary
    }
    const SwitchGraph sub(topo, sub_links);
    const uint32_t dst = primary.back();

    // Every subgraph vertex must be able to reach dst inside the subgraph:
    // packets detoured there during failover must not strand.
    {
      std::vector<uint32_t> dist = BfsWithout(sub, dst, UINT32_MAX, nullptr);
      for (uint32_t v : members) {
        if (dist[v] == UINT32_MAX) {
          auto uid = topo.switch_at(v).uid;
          findings.push_back({"vertex-cannot-reach-dst",
                              name + ": subgraph vertex " + UidName(uid) +
                                  " cannot reach the destination switch inside "
                                  "the subgraph"});
        }
      }
    }

    // Algorithm 1 windows, mirroring the builder exactly: [p_i, p_{i+s}] with
    // i advancing by s/2, detour budget s + epsilon.
    const size_t l = primary.size();
    const uint32_t s = std::max<uint32_t>(1, opts.s);
    const uint32_t step = std::max<uint32_t>(1, s / 2);
    const uint32_t budget = s + opts.epsilon;
    for (size_t i = 0; i < l; i += step) {
      const size_t j = std::min(i + s, l - 1);
      const uint32_t a = primary[i];
      const uint32_t b = primary[j];

      // (a) Completeness: every fabric vertex within the window budget must be
      // a member (this is exactly the builder's membership rule).
      std::vector<uint32_t> da = BfsWithout(fabric, a, budget, nullptr);
      std::vector<uint32_t> db = BfsWithout(fabric, b, budget, nullptr);
      for (uint32_t x = 0; x < fabric.size(); ++x) {
        if (da[x] != UINT32_MAX && db[x] != UINT32_MAX && da[x] + db[x] <= budget &&
            members.count(x) == 0) {
          findings.push_back(
              {"detour-incomplete",
               name + ": " + UidName(topo.switch_at(x).uid) + " is " +
                   std::to_string(da[x]) + "+" + std::to_string(db[x]) +
                   " hops from window [" + UidName(g.primary[i]) + ".." +
                   UidName(g.primary[j]) + "] (budget " + std::to_string(budget) +
                   ") but is not in the subgraph"});
        }
      }

      // (b) epsilon-goodness: if the fabric can route around this window's
      // primary segment within the budget, the cached subgraph must be able to
      // as well — otherwise a window failure forces a controller round-trip the
      // paper's design avoids (Section 4.3).
      std::set<std::pair<uint32_t, uint32_t>> window_edges;
      for (size_t k = i; k < j; ++k) {
        window_edges.insert(EdgeKey(primary[k], primary[k + 1]));
      }
      std::vector<uint32_t> fab_detour = BfsWithout(fabric, a, budget, &window_edges);
      if (fab_detour[b] != UINT32_MAX) {
        std::vector<uint32_t> sub_detour = BfsWithout(sub, a, budget, &window_edges);
        if (sub_detour[b] == UINT32_MAX) {
          findings.push_back(
              {"detour-not-eps-good",
               name + ": fabric admits a " + std::to_string(fab_detour[b]) +
                   "-hop detour around window [" + UidName(g.primary[i]) + ".." +
                   UidName(g.primary[j]) + "] (budget " + std::to_string(budget) +
                   ") but the subgraph does not"});
        }
      }
      if (i + s >= l - 1) {
        break;
      }
    }

    // Backup link-disjointness score: fraction of backup edges shared with the
    // primary. The builder only reuses primary links "unless it is unavoidable"
    // (16x penalty), so a high score on a multipath fabric is a red flag.
    if (backup.size() >= 2) {
      std::set<std::pair<uint32_t, uint32_t>> primary_edges;
      for (size_t i = 0; i + 1 < primary.size(); ++i) {
        primary_edges.insert(EdgeKey(primary[i], primary[i + 1]));
      }
      size_t shared = 0;
      const size_t backup_edges = backup.size() - 1;
      for (size_t i = 0; i + 1 < backup.size(); ++i) {
        shared += primary_edges.count(EdgeKey(backup[i], backup[i + 1]));
      }
      const double overlap = static_cast<double>(shared) / static_cast<double>(backup_edges);
      if (overlap > opts.max_backup_overlap) {
        findings.push_back(
            {"backup-overlap",
             name + ": backup shares " + std::to_string(shared) + "/" +
                 std::to_string(backup_edges) + " edges with the primary (" +
                 std::to_string(overlap) + " > allowed " +
                 std::to_string(opts.max_backup_overlap) + ")"});
      }
    }
  }
  return findings;
}

std::vector<CheckFinding> CheckFabric(const Topology& topo,
                                      const std::vector<PathGraphExport>& graphs,
                                      const FabricCheckOptions& opts) {
  std::vector<CheckFinding> findings = CheckTopology(topo, opts);
  std::vector<CheckFinding> pg = CheckPathGraphs(topo, graphs, opts);
  findings.insert(findings.end(), pg.begin(), pg.end());
  return findings;
}

std::string CheckFindingsJson(const std::vector<CheckFinding>& findings) {
  std::ostringstream os;
  os << "{\"count\":" << findings.size() << ",\"findings\":[";
  for (size_t i = 0; i < findings.size(); ++i) {
    os << (i > 0 ? "," : "") << "{\"check\":\"" << JsonEscape(findings[i].check)
       << "\",\"detail\":\"" << JsonEscape(findings[i].detail) << "\"}";
  }
  os << "]}";
  return os.str();
}

std::string SerializeWirePathGraphs(const std::vector<PathGraphExport>& graphs) {
  std::ostringstream os;
  os << "# dumbnet path graphs: " << graphs.size() << "\n";
  for (const PathGraphExport& g : graphs) {
    os << "pathgraph " << g.src_uid << " " << g.dst_uid << "\n";
    auto emit_path = [&](const char* kind, const std::vector<uint64_t>& path) {
      if (path.empty()) {
        return;
      }
      os << kind;
      for (uint64_t uid : path) {
        os << " " << uid;
      }
      os << "\n";
    };
    emit_path("primary", g.primary);
    emit_path("backup", g.backup);
    for (const WireLink& l : g.links) {
      os << "plink " << l.uid_a << " " << static_cast<int>(l.port_a) << " " << l.uid_b
         << " " << static_cast<int>(l.port_b) << "\n";
    }
    os << "end\n";
  }
  return os.str();
}

Result<std::vector<PathGraphExport>> ParseWirePathGraphs(const std::string& text) {
  auto parse_error = [](size_t line_no, const std::string& message) {
    return Error(ErrorCode::kMalformed,
                 "line " + std::to_string(line_no) + ": " + message);
  };
  std::vector<PathGraphExport> graphs;
  PathGraphExport current;
  bool open = false;
  std::istringstream in(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    std::istringstream ls(line);
    std::string kind;
    if (!(ls >> kind) || kind[0] == '#') {
      continue;
    }
    if (kind == "pathgraph") {
      if (open) {
        return parse_error(line_no, "pathgraph inside an unterminated pathgraph");
      }
      current = PathGraphExport{};
      if (!(ls >> current.src_uid >> current.dst_uid)) {
        return parse_error(line_no, "pathgraph needs <src_uid> <dst_uid>");
      }
      open = true;
      continue;
    }
    if (!open) {
      return parse_error(line_no, "'" + kind + "' outside a pathgraph block");
    }
    if (kind == "primary" || kind == "backup") {
      std::vector<uint64_t>& path = kind == "primary" ? current.primary : current.backup;
      uint64_t uid = 0;
      while (ls >> uid) {
        path.push_back(uid);
      }
      if (path.empty()) {
        return parse_error(line_no, kind + " needs at least one uid");
      }
      continue;
    }
    if (kind == "plink") {
      WireLink l;
      int port_a = 0;
      int port_b = 0;
      if (!(ls >> l.uid_a >> port_a >> l.uid_b >> port_b)) {
        return parse_error(line_no, "plink needs <uid_a> <port_a> <uid_b> <port_b>");
      }
      if (port_a < 0 || port_a > kMaxPorts || port_b < 0 || port_b > kMaxPorts) {
        return parse_error(line_no, "plink port out of range [0,254]");
      }
      l.port_a = static_cast<PortNum>(port_a);
      l.port_b = static_cast<PortNum>(port_b);
      current.links.push_back(l);
      continue;
    }
    if (kind == "end") {
      graphs.push_back(std::move(current));
      open = false;
      continue;
    }
    return parse_error(line_no, "unknown directive '" + kind + "'");
  }
  if (open) {
    return parse_error(line_no, "unterminated pathgraph block");
  }
  return graphs;
}

Status SaveWirePathGraphs(const std::vector<PathGraphExport>& graphs,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Error(ErrorCode::kUnavailable, "cannot open " + path);
  }
  out << SerializeWirePathGraphs(graphs);
  return out.good() ? Status::Ok()
                    : Status(Error(ErrorCode::kUnavailable, "write failed: " + path));
}

Result<std::vector<PathGraphExport>> LoadWirePathGraphs(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Error(ErrorCode::kNotFound, "cannot open " + path);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseWirePathGraphs(buffer.str());
}

int RunDumbnetCheck(const std::string& topo_path,
                    const std::vector<std::string>& pathgraph_paths,
                    const FabricCheckOptions& opts, std::ostream& out) {
  auto topo = LoadTopology(topo_path);
  if (!topo.ok()) {
    // Exit-code contract: 1 is reserved for *findings about a loadable fabric*;
    // anything that prevents the checks from running at all — unreadable or
    // unparseable input included — is an input error, code 2. Callers scripting
    // the gate can therefore distinguish "checked and failed" from "never
    // checked".
    out << "dumbnet-check: " << topo_path << ": " << topo.error().ToString() << "\n";
    return 2;
  }
  std::vector<PathGraphExport> graphs;
  for (const std::string& p : pathgraph_paths) {
    auto parsed = LoadWirePathGraphs(p);
    if (!parsed.ok()) {
      out << "dumbnet-check: " << p << ": " << parsed.error().ToString() << "\n";
      return 2;
    }
    graphs.insert(graphs.end(), parsed.value().begin(), parsed.value().end());
  }
  const std::vector<CheckFinding> findings = CheckFabric(topo.value(), graphs, opts);
  for (const CheckFinding& f : findings) {
    out << "[" << f.check << "] " << f.detail << "\n";
  }
  if (!opts.json_path.empty()) {
    std::ofstream json_out(opts.json_path);
    if (!json_out) {
      out << "dumbnet-check: cannot write " << opts.json_path << "\n";
      return 2;
    }
    json_out << CheckFindingsJson(findings) << "\n";
  }
  out << "dumbnet-check: " << topo.value().switch_count() << " switches, "
      << topo.value().host_count() << " hosts, " << graphs.size() << " path graphs, "
      << findings.size() << " finding" << (findings.size() == 1 ? "" : "s") << "\n";
  return findings.empty() ? 0 : 1;
}

}  // namespace dumbnet
