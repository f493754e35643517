// Per-source shortest-path-tree cache for the controller's batched path-graph
// precompute.
//
// ControllerService::PrecomputePathGraphs builds path graphs from one source
// switch to many destinations, all starting from one Dijkstra tree rooted at that
// source. This cache keeps one SsspTree per source, keyed by a topology version
// number (TopoDb::version()); any mutation bumps the version and the next Get()
// drops every cached tree. Bootstraps and path-query responses deliberately do not
// use it: they run a randomized Dijkstra per host or per query (controller.cc), so
// hosts' control paths stay decorrelated and retries re-randomize.
#ifndef DUMBNET_SRC_ROUTING_SSSP_CACHE_H_
#define DUMBNET_SRC_ROUTING_SSSP_CACHE_H_

#include <cstdint>
#include <unordered_map>

#include "src/routing/shortest_path.h"
#include "src/util/rng.h"

namespace dumbnet {

class SsspCache {
 public:
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
  };

  // The tree rooted at `src` over `graph`, rebuilt iff `version` differs from the
  // version of the cached contents (or `src` has no cached tree yet). `graph` must
  // be the snapshot matching `version`. Equal-cost tie-breaks of a rebuilt tree
  // draw from `rng`. The reference is valid until the next Get()/Invalidate().
  const SsspTree& Get(const SwitchGraph& graph, uint64_t version, uint32_t src, Rng* rng);

  // Drops everything; the next Get() rebuilds regardless of version. Needed when
  // the database object itself is replaced (a fresh TopoDb restarts version
  // numbering, so version comparison alone cannot be trusted).
  void Invalidate();

  const Stats& stats() const { return stats_; }

 private:
  static constexpr uint64_t kNoVersion = UINT64_MAX;

  std::unordered_map<uint32_t, SsspTree> trees_;
  uint64_t version_ = kNoVersion;
  SsspScratch scratch_;
  Stats stats_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ROUTING_SSSP_CACHE_H_
