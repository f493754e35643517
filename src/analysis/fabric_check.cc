#include "src/analysis/fabric_check.h"

#include <fstream>
#include <ostream>
#include <set>
#include <sstream>
#include <unordered_set>

#include "src/analysis/invariants.h"
#include "src/routing/graph.h"
#include "src/routing/shortest_path.h"
#include "src/topo/serialize.h"
#include "src/util/json.h"

namespace dumbnet {
namespace {

std::string UidName(uint64_t uid) { return "uid=" + std::to_string(uid); }

std::string GraphName(const WirePathGraph& g) {
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

// Ground-truth link for a consecutive uid pair on a path (any up or down link).
LinkIndex TruthEdge(const Topology& topo, uint64_t uid_a, uint64_t uid_b) {
  auto ia = topo.SwitchByUid(uid_a);
  auto ib = topo.SwitchByUid(uid_b);
  if (!ia.ok() || !ib.ok()) {
    return kInvalidLink;
  }
  const SwitchInfo& sw = topo.switch_at(ia.value());
  for (PortNum p = 1; p <= sw.num_ports; ++p) {
    LinkIndex li = sw.port_link[p];
    if (li == kInvalidLink) {
      continue;
    }
    const Link& l = topo.link_at(li);
    if (l.detached) {
      continue;
    }
    const Endpoint& peer = l.Peer(NodeId::Switch(ia.value()));
    if (peer.node.is_switch() && peer.node.index == ib.value()) {
      return li;
    }
  }
  return kInvalidLink;
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
                                          const std::vector<WirePathGraph>& graphs,
                                          const FabricCheckOptions& opts) {
  std::vector<CheckFinding> findings;
  for (const WirePathGraph& g : graphs) {
    const std::string name = GraphName(g);

    // Well-formedness of the graph itself (endpoints, induced links, no port
    // conflicts inside the graph).
    if (Status s = AuditWirePathGraph(g); !s.ok()) {
      findings.push_back({"pathgraph-malformed", name + ": " + s.error().ToString()});
    }

    // Loops: a repeated switch on the primary.
    std::set<uint64_t> seen;
    for (uint64_t uid : g.primary) {
      if (!seen.insert(uid).second) {
        findings.push_back(
            {"primary-loop", name + ": primary revisits " + UidName(uid)});
        break;
      }
    }

    // Tag budget: one tag per switch on the path (final host port included) + ø.
    auto check_budget = [&](const std::vector<uint64_t>& path, const char* which) {
      if (!path.empty() && path.size() + 1 > opts.max_tag_depth) {
        findings.push_back(
            {"tag-budget-exceeded",
             name + ": " + which + " needs " + std::to_string(path.size() + 1) +
                 " header bytes, budget is " + std::to_string(opts.max_tag_depth)});
      }
    };
    check_budget(g.primary, "primary");
    check_budget(g.backup, "backup");

    // Each advertised link must exist in the fabric exactly as described.
    for (const WireLink& wl : g.links) {
      if (TruthLink(topo, wl) == kInvalidLink) {
        findings.push_back(
            {"link-conflict", name + ": advertised link " + UidName(wl.uid_a) + ":" +
                                  std::to_string(static_cast<int>(wl.port_a)) + "<->" +
                                  UidName(wl.uid_b) + ":" +
                                  std::to_string(static_cast<int>(wl.port_b)) +
                                  " is absent or wired differently in the fabric"});
      }
    }

    // Path hops over failed links; and the backup sharing a failed link with the
    // primary (the exact situation the backup exists to avoid).
    std::set<std::pair<uint64_t, uint64_t>> primary_down_edges;
    for (size_t i = 0; i + 1 < g.primary.size(); ++i) {
      LinkIndex li = TruthEdge(topo, g.primary[i], g.primary[i + 1]);
      if (li != kInvalidLink && !topo.link_at(li).up) {
        findings.push_back({"primary-on-failed-link",
                            name + ": primary hop " + UidName(g.primary[i]) + "->" +
                                UidName(g.primary[i + 1]) + " rides a down link"});
        uint64_t a = g.primary[i];
        uint64_t b = g.primary[i + 1];
        primary_down_edges.insert(a < b ? std::pair{a, b} : std::pair{b, a});
      }
    }
    for (size_t i = 0; i + 1 < g.backup.size(); ++i) {
      uint64_t a = g.backup[i];
      uint64_t b = g.backup[i + 1];
      auto key = a < b ? std::pair{a, b} : std::pair{b, a};
      if (primary_down_edges.count(key) > 0) {
        findings.push_back({"backup-shares-failed-link",
                            name + ": backup hop " + UidName(a) + "->" + UidName(b) +
                                " shares a failed link with the primary"});
      }
    }
  }
  return findings;
}

std::vector<CheckFinding> CheckFabric(const Topology& topo,
                                      const std::vector<WirePathGraph>& graphs,
                                      const FabricCheckOptions& opts) {
  std::vector<CheckFinding> findings = CheckTopology(topo, opts);
  std::vector<CheckFinding> pg = CheckPathGraphs(topo, graphs, opts);
  findings.insert(findings.end(), pg.begin(), pg.end());
  if (opts.verify_semantics) {
    std::vector<CheckFinding> sem = VerifyPathGraphSemantics(topo, graphs, opts.verify);
    findings.insert(findings.end(), sem.begin(), sem.end());
  }
  return findings;
}

namespace {

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
        if (excluded != nullptr) {
          auto key = u < e.to ? std::pair{u, e.to} : std::pair{e.to, u};
          if (excluded->count(key) > 0) {
            continue;
          }
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

std::vector<CheckFinding> VerifyPathGraphSemantics(
    const Topology& topo, const std::vector<WirePathGraph>& graphs,
    const PathGraphVerifyOptions& vopts) {
  std::vector<CheckFinding> findings;
  const SwitchGraph fabric(topo);

  for (const WirePathGraph& g : graphs) {
    const std::string name = GraphName(g);

    // Map every uid the graph mentions to a switch index; an unknown uid makes
    // the deeper semantic checks meaningless, so flag it and move on.
    bool uids_ok = true;
    auto index_of = [&](uint64_t uid, const char* where) -> uint32_t {
      auto idx = topo.SwitchByUid(uid);
      if (!idx.ok()) {
        findings.push_back({"pathgraph-unknown-switch",
                            name + ": " + where + " mentions " + UidName(uid) +
                                ", absent from the topology snapshot"});
        uids_ok = false;
        return kNoVertex;
      }
      return idx.value();
    };
    std::vector<uint32_t> primary;
    primary.reserve(g.primary.size());
    for (uint64_t uid : g.primary) {
      primary.push_back(index_of(uid, "primary"));
    }
    std::vector<uint32_t> backup;
    backup.reserve(g.backup.size());
    for (uint64_t uid : g.backup) {
      backup.push_back(index_of(uid, "backup"));
    }
    if (!uids_ok) {
      continue;
    }

    // Loop-freedom of the backup (primary loops are CheckPathGraphs' job).
    std::set<uint32_t> backup_seen;
    for (size_t i = 0; i < backup.size(); ++i) {
      if (!backup_seen.insert(backup[i]).second) {
        findings.push_back(
            {"backup-loop", name + ": backup revisits " + UidName(g.backup[i])});
        break;
      }
    }

    // Primary and backup must be real walks over up links.
    auto check_edges = [&](const std::vector<uint32_t>& path,
                           const std::vector<uint64_t>& uids, const char* which) {
      for (size_t i = 0; i + 1 < path.size(); ++i) {
        bool adjacent = false;
        for (const AdjEdge& e : fabric.Neighbors(path[i])) {
          adjacent = adjacent || e.to == path[i + 1];
        }
        if (!adjacent) {
          findings.push_back({"path-broken-edge",
                              name + ": " + which + " hop " + UidName(uids[i]) + "->" +
                                  UidName(uids[i + 1]) + " has no up link"});
        }
      }
    };
    check_edges(primary, g.primary, "primary");
    check_edges(backup, g.backup, "backup");

    // The subgraph the host would cache: vertices from both paths plus every
    // advertised link endpoint; links restricted to ones the fabric confirms.
    std::set<uint32_t> members(primary.begin(), primary.end());
    members.insert(backup.begin(), backup.end());
    std::vector<LinkIndex> sub_links;
    for (const WireLink& wl : g.links) {
      LinkIndex li = TruthLink(topo, wl);
      if (li == kInvalidLink) {
        continue;  // CheckPathGraphs reports link-conflict for these
      }
      auto ia = topo.SwitchByUid(wl.uid_a);
      auto ib = topo.SwitchByUid(wl.uid_b);
      members.insert(ia.value());
      members.insert(ib.value());
      sub_links.push_back(li);
    }
    const SwitchGraph sub(topo, sub_links);

    if (primary.empty()) {
      continue;  // nothing further to verify without a primary
    }
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
    const uint32_t s = std::max<uint32_t>(1, vopts.s);
    const uint32_t step = std::max<uint32_t>(1, s / 2);
    const uint32_t budget = s + vopts.epsilon;
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
        uint32_t u = primary[k];
        uint32_t v = primary[k + 1];
        window_edges.insert(u < v ? std::pair{u, v} : std::pair{v, u});
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
        uint32_t u = primary[i];
        uint32_t v = primary[i + 1];
        primary_edges.insert(u < v ? std::pair{u, v} : std::pair{v, u});
      }
      size_t shared = 0;
      const size_t backup_edges = backup.size() - 1;
      for (size_t i = 0; i + 1 < backup.size(); ++i) {
        uint32_t u = backup[i];
        uint32_t v = backup[i + 1];
        shared += primary_edges.count(u < v ? std::pair{u, v} : std::pair{v, u});
      }
      const double overlap = static_cast<double>(shared) / static_cast<double>(backup_edges);
      if (overlap > vopts.max_backup_overlap) {
        findings.push_back(
            {"backup-overlap",
             name + ": backup shares " + std::to_string(shared) + "/" +
                 std::to_string(backup_edges) + " edges with the primary (" +
                 std::to_string(overlap) + " > allowed " +
                 std::to_string(vopts.max_backup_overlap) + ")"});
      }
    }
  }
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

std::string SerializeWirePathGraphs(const std::vector<WirePathGraph>& graphs) {
  std::ostringstream os;
  os << "# dumbnet path graphs: " << graphs.size() << "\n";
  for (const WirePathGraph& g : graphs) {
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

Result<std::vector<WirePathGraph>> ParseWirePathGraphs(const std::string& text) {
  auto parse_error = [](size_t line_no, const std::string& message) {
    return Error(ErrorCode::kMalformed,
                 "line " + std::to_string(line_no) + ": " + message);
  };
  std::vector<WirePathGraph> graphs;
  WirePathGraph current;
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
      current = WirePathGraph{};
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

Status SaveWirePathGraphs(const std::vector<WirePathGraph>& graphs,
                          const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    return Error(ErrorCode::kUnavailable, "cannot open " + path);
  }
  out << SerializeWirePathGraphs(graphs);
  return out.good() ? Status::Ok()
                    : Status(Error(ErrorCode::kUnavailable, "write failed: " + path));
}

Result<std::vector<WirePathGraph>> LoadWirePathGraphs(const std::string& path) {
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
  std::vector<WirePathGraph> graphs;
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
