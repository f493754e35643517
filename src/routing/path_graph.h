// Path graph (paper Section 4.3, Algorithm 1): the subgraph the controller hands a
// host when it asks for a route. Contains (i) a primary shortest path, (ii) "s-step,
// ε-good" local detours around every window of the primary, and (iii) a backup path
// that avoids primary links where possible.
//
// Two construction tiers:
//   - BuildPathGraph: one (src, dst) pair. The scratch overload reuses a
//     PathGraphScratch so repeated builds do no O(V)/O(E) allocation.
//   - BuildPathGraphBatch: many destinations from one source. Primaries come from
//     a shared SSSP tree (one Dijkstra total instead of one per destination) and
//     one scratch serves every destination's detour/backup work.
#ifndef DUMBNET_SRC_ROUTING_PATH_GRAPH_H_
#define DUMBNET_SRC_ROUTING_PATH_GRAPH_H_

#include <cstdint>
#include <vector>

#include "src/routing/graph.h"
#include "src/routing/shortest_path.h"
#include "src/routing/wire_types.h"
#include "src/topo/topology.h"
#include "src/util/rng.h"

namespace dumbnet {

struct PathGraphParams {
  // Algorithm 1's constants: windows of `s` consecutive hops may be replaced by
  // detours of length at most s + epsilon.
  uint32_t s = 2;
  uint32_t epsilon = 2;
  // Weight multiplier applied to primary-path links before computing the backup,
  // making reuse unlikely "unless it is unavoidable".
  double backup_penalty = 16.0;
};

struct PathGraph {
  uint32_t src_switch = 0;
  uint32_t dst_switch = 0;
  SwitchPath primary;
  SwitchPath backup;
  // All switches of the subgraph (primary ∪ detour sets ∪ backup), deduplicated.
  std::vector<uint32_t> vertices;
  // Induced up links among `vertices` (inter-switch only).
  std::vector<LinkIndex> links;
};

// A path graph in UID form as the controller exports it (PrecomputePathGraphs,
// .pg files): the links a host receives, plus Algorithm 1's primary and backup.
// Hosts never see the two paths; dumbnet-check verifies them.
struct PathGraphExport : WirePathGraph {
  std::vector<uint64_t> primary;  // switch UIDs, src first
  std::vector<uint64_t> backup;   // empty when the controller ships no backup
};

// Reusable buffers for path-graph construction: Dijkstra/BFS scratch, the per-link
// weight-scale vector used to repel the backup from the primary, and an
// epoch-stamped vertex-membership set. One instance per thread.
class PathGraphScratch {
 public:
  PathGraphScratch() = default;

 private:
  friend class PathGraphBuilder;

  SsspScratch dijkstra_;
  SsspScratch bfs_a_;
  SsspScratch bfs_b_;
  std::vector<double> link_scale_;     // 1.0 except along the primary
  std::vector<LinkIndex> scaled_;      // undo list for link_scale_
  std::vector<uint32_t> member_stamp_; // vertex-set membership, epoch-stamped
  uint32_t member_epoch_ = 0;
  std::vector<uint32_t> vertices_;
  std::vector<LinkIndex> links_;
};

// Builds the path graph between two switches. `graph` must be a current snapshot of
// `topo`. Randomized equal-cost choices draw from `rng` when provided.
Result<PathGraph> BuildPathGraph(const Topology& topo, const SwitchGraph& graph,
                                 uint32_t src_switch, uint32_t dst_switch,
                                 const PathGraphParams& params, Rng* rng = nullptr);

// Allocation-free variant: identical output (given the same rng draws), all
// temporaries live in `scratch`.
Result<PathGraph> BuildPathGraph(const Topology& topo, const SwitchGraph& graph,
                                 uint32_t src_switch, uint32_t dst_switch,
                                 const PathGraphParams& params, Rng* rng,
                                 PathGraphScratch& scratch);

// Completes a path graph around an externally supplied primary path (e.g. one
// extracted from a cached SSSP tree): computes the backup, detour sets, and the
// induced subgraph. `primary` must be a valid path in `graph`.
Result<PathGraph> BuildPathGraphAround(const Topology& topo, const SwitchGraph& graph,
                                       SwitchPath primary, const PathGraphParams& params,
                                       Rng* rng, PathGraphScratch& scratch);

// Builds path graphs from one source to many destinations. Primaries are extracted
// from `tree` (which must be rooted at src_switch over `graph`). Destination i
// draws from its own `rng->Fork(i)`, forked up front, so the batch equals one
// BuildPathGraphAround per destination with those forks. Per-destination failures
// (e.g. an unreachable destination) yield error entries; the batch itself always
// succeeds.
std::vector<Result<PathGraph>> BuildPathGraphBatch(
    const Topology& topo, const SwitchGraph& graph, const SsspTree& tree,
    const std::vector<uint32_t>& dst_switches, const PathGraphParams& params, Rng* rng);

// Counts distinct simple src→dst paths inside the path-graph subgraph, up to `cap`
// (the subgraph can encode combinatorially many; Figure 12 reports this count).
uint64_t CountPathsInSubgraph(const Topology& topo, const PathGraph& pg, uint64_t cap);

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ROUTING_PATH_GRAPH_H_
