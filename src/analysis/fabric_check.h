// Static fabric-state checker: analyses a serialized topology plus the
// controller's exported path graphs (the links hosts would cache, with
// Algorithm 1's primary and backup), *without* running the simulator — the
// DumbNet analogue of static forwarding-rule analysis. Backs `dumbnet-check`.
//
// Path-graph file format (line-oriented, like src/topo/serialize.h):
//
//   # comment
//   pathgraph <src_uid> <dst_uid>
//   primary <uid> <uid> ...
//   backup <uid> ...                 # optional
//   plink <uid_a> <port_a> <uid_b> <port_b>
//   end
#ifndef DUMBNET_SRC_ANALYSIS_FABRIC_CHECK_H_
#define DUMBNET_SRC_ANALYSIS_FABRIC_CHECK_H_

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/analysis/audit.h"
#include "src/routing/path_graph.h"
#include "src/topo/topology.h"
#include "src/util/result.h"

namespace dumbnet {

struct CheckFinding {
  std::string check;   // stable identifier, e.g. "primary-loop"
  std::string detail;  // human-readable explanation
};

struct FabricCheckOptions {
  // Tag stack budget: hop tags + destination port + ø must fit.
  size_t max_tag_depth = audit::kMaxTagStackDepth;
  // Algorithm 1 parameters the path graphs are checked against. Defaults mirror
  // PathGraphParams so controller-generated graphs check clean out of the box.
  uint32_t s = 2;        // detour window length (hops)
  uint32_t epsilon = 2;  // detour slack: window detours may use s + epsilon hops
  // Maximum tolerated fraction of backup edges shared with the primary. 1.0
  // (default) never fires: on single-path topologies full overlap is correct
  // ("unless it is unavoidable"); tighten for fabrics known to be multipath.
  double max_backup_overlap = 1.0;
  // When non-empty, RunDumbnetCheck writes findings as JSON to this path.
  std::string json_path;
};

// Checks the topology alone: structural validity, disconnected (unreachable)
// hosts, hosts with a down or missing uplink.
std::vector<CheckFinding> CheckTopology(const Topology& topo,
                                        const FabricCheckOptions& opts = {});

// Checks path graphs against the topology ground truth and Algorithm 1
// (Section 4.3):
//   pathgraph-malformed        the links fail AuditWirePathGraph, or a path
//                              does not run src..dst over them
//   primary-loop, backup-loop  a path revisits a switch
//   tag-budget-exceeded        a path needs more header bytes than max_tag_depth
//   link-conflict              an advertised link is absent from the fabric or
//                              wired differently
//   pathgraph-unknown-switch   a path uid absent from the topology snapshot
//   primary-on-failed-link     a primary hop rides a down link
//   backup-shares-failed-link  a backup hop rides the primary's down link
//   path-broken-edge           any other hop without an up link
//   vertex-cannot-reach-dst    a subgraph vertex cannot reach dst inside the
//                              subgraph (failover could strand a packet there)
//   detour-incomplete          a vertex within a window's budget
//                              (dist(a,x)+dist(x,b) <= s+epsilon) is missing
//   detour-not-eps-good        the fabric admits an (s+epsilon)-hop detour around
//                              a window but the subgraph does not contain one
//   backup-overlap             the backup shares more than max_backup_overlap of
//                              its edges with the primary
std::vector<CheckFinding> CheckPathGraphs(const Topology& topo,
                                          const std::vector<PathGraphExport>& graphs,
                                          const FabricCheckOptions& opts = {});

// Both of the above.
std::vector<CheckFinding> CheckFabric(const Topology& topo,
                                      const std::vector<PathGraphExport>& graphs,
                                      const FabricCheckOptions& opts = {});

// Machine-readable form: {"count":N,"findings":[{"check":...,"detail":...}]}.
std::string CheckFindingsJson(const std::vector<CheckFinding>& findings);

// Path-graph (de)serialization in the text format above.
std::string SerializeWirePathGraphs(const std::vector<PathGraphExport>& graphs);
Result<std::vector<PathGraphExport>> ParseWirePathGraphs(const std::string& text);
Status SaveWirePathGraphs(const std::vector<PathGraphExport>& graphs,
                          const std::string& path);
Result<std::vector<PathGraphExport>> LoadWirePathGraphs(const std::string& path);

// CLI driver shared by tools/dumbnet_check.cc and tests: loads `topo_path` (and
// optional path-graph files), runs every check, reports findings to `out`.
// Returns 0 when clean, 1 when findings were reported, 2 on a load/parse error.
int RunDumbnetCheck(const std::string& topo_path,
                    const std::vector<std::string>& pathgraph_paths,
                    const FabricCheckOptions& opts, std::ostream& out);

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ANALYSIS_FABRIC_CHECK_H_
