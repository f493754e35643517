// Switch-level graph view over a Topology, used by all routing algorithms.
// Only up links appear; hosts are not vertices (they hang off their edge switch and
// are handled at tag-compilation time).
//
// Stored in CSR (compressed sparse row) form: one flat edge array plus per-vertex
// offsets. Neighbor iteration is a contiguous scan, and copying a graph (the
// backup-path penalisation used to copy it) is two flat memcpy-able vectors.
// Neighbor order is identical to the old vector-of-vectors layout (link iteration
// order), so all randomized tie-breaking remains bit-for-bit reproducible.
#ifndef DUMBNET_SRC_ROUTING_GRAPH_H_
#define DUMBNET_SRC_ROUTING_GRAPH_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "src/topo/topology.h"

namespace dumbnet {

constexpr uint32_t kNoVertex = UINT32_MAX;
constexpr double kInfCost = std::numeric_limits<double>::infinity();

struct AdjEdge {
  uint32_t to = 0;        // peer switch index
  PortNum out_port = 0;   // port on this switch
  PortNum in_port = 0;    // port on the peer
  LinkIndex link = kInvalidLink;
  double weight = 1.0;
};

// Immutable adjacency snapshot. Rebuild after topology mutations (cheap: O(V+E)).
class SwitchGraph {
 public:
  // Lightweight view of one vertex's adjacency row; iterable like a vector.
  class NeighborSpan {
   public:
    NeighborSpan(const AdjEdge* begin, const AdjEdge* end) : begin_(begin), end_(end) {}
    const AdjEdge* begin() const { return begin_; }
    const AdjEdge* end() const { return end_; }
    size_t size() const { return static_cast<size_t>(end_ - begin_); }
    bool empty() const { return begin_ == end_; }
    const AdjEdge& operator[](size_t i) const { return begin_[i]; }

   private:
    const AdjEdge* begin_;
    const AdjEdge* end_;
  };

  // Snapshot of all switches and all *up* inter-switch links.
  explicit SwitchGraph(const Topology& topo);

  // Subgraph snapshot: only the listed links (still only those that are up).
  SwitchGraph(const Topology& topo, const std::vector<LinkIndex>& allowed_links);

  size_t size() const { return offsets_.size() - 1; }
  NeighborSpan Neighbors(uint32_t s) const {
    return NeighborSpan(edges_.data() + offsets_[s], edges_.data() + offsets_[s + 1]);
  }

  // Total directed edge count (2x the undirected link count).
  size_t edge_count() const { return edges_.size(); }

  // Multiplies the weight of every adjacency that uses `link` by `factor`;
  // used to repel the backup path from the primary (Section 4.3).
  void ScaleLinkWeight(LinkIndex link, double factor);

 private:
  void Build(const Topology& topo, const std::vector<LinkIndex>* allowed_links);

  std::vector<uint32_t> offsets_;  // size() + 1 entries; row s is [offsets_[s], offsets_[s+1])
  std::vector<AdjEdge> edges_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ROUTING_GRAPH_H_
