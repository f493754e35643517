// TopoCache: the host-side topology cache (paper Section 5.2). Aggregates every
// path graph the controller has sent this host into one partial topology and
// serves k-shortest-path computations over it. The host agent marks links up and
// down in it from failure notifications and patches, so recomputed routes avoid
// dead links; with the backup's links merged, it is the host's only fallback
// once every PathTable route to a destination has died.
#ifndef DUMBNET_SRC_HOST_TOPO_CACHE_H_
#define DUMBNET_SRC_HOST_TOPO_CACHE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/host/path_table.h"
#include "src/routing/shortest_path.h"
#include "src/routing/topo_db.h"
#include "src/routing/wire_types.h"
#include "src/util/result.h"

namespace dumbnet {

// The interned unit: a db structure, its adjacency and the Yen runs made on it
// (defined in topo_cache.cc).
struct RouteSnapshot;

class TopoCache {
 public:
  // Route-computation work done by ComputeRoutes.
  struct RouteStats {
    uint64_t ksp_runs = 0;       // Yen runs over the cached graph
    uint64_t ksp_memo_hits = 0;  // answered from the snapshot's memo instead
  };

  TopoCache() = default;

  // Merges a controller response: the path graph's switches/links (primary,
  // detours and backup alike) plus the destination's location.
  Status Integrate(const WirePathGraph& graph, const HostLocation& dst);

  // Resolves (switch_uid, port) to the cached edge's endpoint uid pair without
  // touching link state (unknown attach points are an error). The host agent
  // keys its last-writer-wins link-observation merge on this pair so the flood
  // path and the patch path name the same cell, and marks the link through
  // db().SetLinkState / db().AddLink only when the merge accepts it.
  Result<std::pair<uint64_t, uint64_t>> ResolveEdge(uint64_t switch_uid,
                                                    PortNum port) const;

  // Computes up to k shortest routes from `src_uid` to the destination over the
  // cached (up) subgraph, compiled to tags. Fails if dst is not cached or
  // unreachable within the cache. The switch paths are computed once per
  // (graph snapshot, source switch, destination switch, k) and memoized; the
  // tags are compiled on every call with the destination's current port.
  // Structures are interned by content per thread: caches whose structures
  // are equal come to hold one structure, one adjacency and one memo, since
  // Yen is a pure function of the adjacency.
  Result<std::vector<CachedRoute>> ComputeRoutes(uint64_t src_uid, uint64_t dst_mac,
                                                 uint32_t k) const;

  Result<HostLocation> Locate(uint64_t mac) const { return db_.LocateHost(mac); }
  void UpsertHost(const HostLocation& loc) { db_.UpsertHost(loc); }
  // Adopts a bootstrap directory as the shared host base (TopoDb::UpsertHosts).
  void UpsertHosts(TopoDb::SharedDirectory directory) { db_.UpsertHosts(std::move(directory)); }

  const TopoDb& db() const { return db_; }
  TopoDb& db() { return db_; }

  const RouteStats& route_stats() const { return route_stats_; }

  // The adjacency ComputeRoutes runs on. Caches on one thread whose structures
  // are equal return the same object, and hold the same structure after it.
  const SwitchGraph& RoutingGraph() const;

  // Rough memory footprint in bytes (Section 7.3 discusses cache cost). The
  // shared host directory and the shared structure are each charged as an
  // equal share per holder, so summing over every host's cache counts each
  // once.
  size_t ApproxBytes() const;

 private:
  Result<CachedRoute> CompileUidPath(const std::vector<uint64_t>& uid_path,
                                     PortNum final_port) const;
  // The interned unit for db_'s structure, re-interned only when the db
  // version moved (the controller's RoutingGraph() pattern). ComputeRoutes is
  // hot during bring-up — every response triggers route builds over an
  // unchanged mirror — so the unit is cached across those const calls.
  // Interning swaps db_'s structure for an equal one already interned.
  RouteSnapshot& Snapshot() const;

  TopoDb db_;
  // Shared with every cache on this thread whose structure is equal, and with
  // copies of this cache until either side's db version moves on.
  mutable std::shared_ptr<RouteSnapshot> snapshot_;
  mutable uint64_t graph_version_ = UINT64_MAX;
  mutable RouteStats route_stats_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_HOST_TOPO_CACHE_H_
