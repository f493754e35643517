// Shortest-path primitives: BFS hop distances, Dijkstra with randomized equal-cost
// tie-breaking (the paper's primary-path generator), and Yen's k-shortest paths
// (what TopoCache computes over its cached subgraph).
//
// Hot-path variants take an SsspScratch: epoch-stamped reusable buffers so repeated
// queries do zero O(V) allocation or clearing. Full single-source trees (SsspTree)
// let one Dijkstra run serve path extractions to every destination — the
// controller's per-source cache (sssp_cache.h) is built on them. Yen's searches
// take a KspScratch the same way.
#ifndef DUMBNET_SRC_ROUTING_SHORTEST_PATH_H_
#define DUMBNET_SRC_ROUTING_SHORTEST_PATH_H_

#include <cstdint>
#include <vector>

#include "src/routing/graph.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace dumbnet {

// A path as a sequence of switch indices (src switch first, dst switch last).
using SwitchPath = std::vector<uint32_t>;

// Reusable scratch space for BFS/Dijkstra. Prepare() bumps an epoch instead of
// clearing, so per-query setup is O(1); arrays grow to the largest graph seen and
// are then reused. Not thread-safe: use one scratch per thread.
class SsspScratch {
 public:
  // Must be called (by the algorithm) before each query.
  void Prepare(size_t vertices) {
    if (stamp_.size() < vertices) {
      stamp_.resize(vertices, 0);
      done_stamp_.resize(vertices, 0);
      cost_.resize(vertices);
      parent_.resize(vertices);
      hops_.resize(vertices);
    }
    if (++epoch_ == 0) {  // wrapped: all stamps are stale garbage, really clear
      std::fill(stamp_.begin(), stamp_.end(), 0u);
      std::fill(done_stamp_.begin(), done_stamp_.end(), 0u);
      epoch_ = 1;
    }
    touched_.clear();
    heap_.clear();
  }

  bool Seen(uint32_t v) const { return stamp_[v] == epoch_; }
  void Touch(uint32_t v) {
    stamp_[v] = epoch_;
    touched_.push_back(v);
  }

  double CostOr(uint32_t v, double fallback) const { return Seen(v) ? cost_[v] : fallback; }
  uint32_t HopsOr(uint32_t v, uint32_t fallback) const { return Seen(v) ? hops_[v] : fallback; }
  uint32_t ParentOr(uint32_t v, uint32_t fallback) const {
    return Seen(v) ? parent_[v] : fallback;
  }

  // Vertices reached by the last query, in visit order.
  const std::vector<uint32_t>& touched() const { return touched_; }

 private:
  friend class SsspAccess;  // algorithm-side accessor (shortest_path.cc)

  struct HeapItem {
    double cost;
    uint64_t tiebreak;
    uint32_t vertex;
  };

  std::vector<uint32_t> stamp_;
  std::vector<uint32_t> done_stamp_;  // Dijkstra finalization marks (see DijkstraInto)
  std::vector<double> cost_;
  std::vector<uint32_t> parent_;
  std::vector<uint32_t> hops_;
  std::vector<uint32_t> touched_;
  std::vector<HeapItem> heap_;
  uint32_t epoch_ = 0;
};

// A full shortest-path tree from one source: extract a path to any destination in
// O(path length) with PathFromTree. `parent[v]` is kNoVertex for the source and
// unreachable vertices; `cost[v]` is kInfCost when unreachable.
struct SsspTree {
  uint32_t src = kNoVertex;
  std::vector<double> cost;
  std::vector<uint32_t> parent;
};

// Unweighted hop distances from `src` to every switch (kNoVertex-reachable entries
// are UINT32_MAX).
std::vector<uint32_t> BfsDistances(const SwitchGraph& graph, uint32_t src);

// Scratch-based BFS, optionally truncated at `max_hops` (vertices further than
// that are simply left unreached — exact distances are still produced inside the
// horizon). Read results via scratch.HopsOr()/touched().
void BfsDistancesInto(const SwitchGraph& graph, uint32_t src, SsspScratch& scratch,
                      uint32_t max_hops = UINT32_MAX);

// Dijkstra. When `rng` is non-null, ties between equal-cost relaxations are broken
// uniformly at random, so repeated calls spread over ECMP paths (Section 4.3:
// "randomizes the choice for equal cost links"). Returns an error if dst is
// unreachable.
Result<SwitchPath> ShortestPath(const SwitchGraph& graph, uint32_t src, uint32_t dst,
                                Rng* rng = nullptr);

// Scratch-based point-to-point Dijkstra with an optional per-link weight
// multiplier (`link_scale`, indexed by LinkIndex; entries default to 1.0 — pass
// nullptr for none). The multiplier is how backup paths are repelled from primary
// links without copying the graph.
Result<SwitchPath> ShortestPathScaled(const SwitchGraph& graph, uint32_t src, uint32_t dst,
                                      Rng* rng, SsspScratch& scratch,
                                      const std::vector<double>* link_scale);

// Full single-source Dijkstra (no early exit): one run answers every destination.
SsspTree BuildSsspTree(const SwitchGraph& graph, uint32_t src, Rng* rng = nullptr,
                       SsspScratch* scratch = nullptr);

// Walks parent pointers in `tree` back from `dst`. Error if unreachable.
Result<SwitchPath> PathFromTree(const SsspTree& tree, uint32_t dst);

// Reusable state for KShortestPaths: the first path's Dijkstra scratch, the spur
// searches' cost/parent/ban arrays and heap, and the candidate pool. The arrays
// grow only when a larger graph shows up and every search restores them through
// its touched list, so a warm scratch runs the spur searches without allocating;
// only the returned paths and newly found candidate paths are allocated. Not
// thread-safe: one scratch per thread.
class KspScratch {
 public:
  KspScratch() = default;

 private:
  friend class YenSearch;  // the algorithm (shortest_path.cc)

  // Spur-search heap entry. Spur searches draw no tie-break (always 0), so
  // equal-cost entries pop in the order the heap's layout gives them.
  struct DijkstraItem {
    double cost;
    uint64_t tiebreak;
    uint32_t vertex;

    bool operator>(const DijkstraItem& other) const {
      if (cost != other.cost) {
        return cost > other.cost;
      }
      return tiebreak > other.tiebreak;
    }
  };
  struct Candidate {
    double cost;
    SwitchPath path;
    bool operator>(const Candidate& other) const { return cost > other.cost; }
  };

  SsspScratch first_;                // the shortest path (DijkstraInto)
  std::vector<double> cost_;         // kInfCost outside touched_
  std::vector<uint32_t> parent_;     // kNoVertex outside touched_
  std::vector<char> banned_vertex_;  // the current root path, spur excluded
  std::vector<char> banned_next_;    // next hops banned out of the spur vertex
  std::vector<uint32_t> touched_;    // vertices the current search reached
  std::vector<DijkstraItem> heap_;   // min-heap, std::greater<DijkstraItem>
  std::vector<uint32_t> chain_;      // last spur path, destination first
  std::vector<SwitchPath> seen_;     // every path found or queued this call
  std::vector<Candidate> candidates_;  // min-heap, std::greater<Candidate>
};

// Yen's algorithm: up to k loop-free shortest paths in nondecreasing cost order.
// Returns at least one path or an error if src/dst are disconnected.
Result<std::vector<SwitchPath>> KShortestPaths(const SwitchGraph& graph, uint32_t src,
                                               uint32_t dst, uint32_t k);

// Scratch-reusing variant: identical output, with the search state in `scratch`.
Result<std::vector<SwitchPath>> KShortestPaths(const SwitchGraph& graph, uint32_t src,
                                               uint32_t dst, uint32_t k,
                                               KspScratch& scratch);

// Total weight of a path under `graph`; error if an edge is missing.
Result<double> PathCost(const SwitchGraph& graph, const SwitchPath& path);

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ROUTING_SHORTEST_PATH_H_
