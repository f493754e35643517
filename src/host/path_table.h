// PathTable: the per-destination route cache in every host's data path (paper
// Section 5.2, Figure 4). Indexed by destination MAC; holds the k shortest paths
// (for load balancing) and remembers which path each flow is bound to so a flow
// stays on one path unless rerouted. The fallback when every cached path dies is
// the host's TopoCache, which holds the controller's backup and detour links.
#ifndef DUMBNET_SRC_HOST_PATH_TABLE_H_
#define DUMBNET_SRC_HOST_PATH_TABLE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <unordered_map>
#include <vector>

#include "src/routing/tags.h"
#include "src/routing/wire_types.h"
#include "src/util/result.h"
#include "src/util/rng.h"

namespace dumbnet {

// One compiled route: the UID-level path (for validity checks against link events)
// and the ready-to-send tag list (ø excluded).
struct CachedRoute {
  std::vector<uint64_t> uid_path;
  TagList tags;

  // True if the route traverses the undirected switch edge (a, b).
  bool UsesEdge(uint64_t a, uint64_t b) const;
};

struct PathTableEntry {
  HostLocation dst;
  std::vector<CachedRoute> paths;  // k shortest, preference order
  // flow id -> index into `paths`.
  std::unordered_map<uint64_t, size_t> flow_binding;
};

struct PathTableStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t rebinds = 0;        // flows moved after invalidation
};

class PathTable {
 public:
  // Pluggable routing function (paper Section 6.1/6.2): picks a path index for a
  // flow from an entry. Return SIZE_MAX to fall through to the default.
  using RouteChooser = std::function<size_t(const PathTableEntry&, uint64_t flow_id)>;

  explicit PathTable(uint64_t rng_seed = 1) : rng_(rng_seed) {}

  void Install(uint64_t dst_mac, PathTableEntry entry);
  void Remove(uint64_t dst_mac) { entries_.erase(dst_mac); }

  bool Contains(uint64_t dst_mac) const { return entries_.count(dst_mac) > 0; }
  const PathTableEntry* Find(uint64_t dst_mac) const;

  // Returns the route for (dst, flow): keeps an existing binding when valid,
  // otherwise picks one (chooser first, then uniform random over k) and binds.
  // Counts a miss and returns kNotFound when no usable route exists.
  //
  // The pointer aliases table storage and is invalidated by the next Install /
  // Remove / InvalidateEdge — use it immediately (every caller compiles the
  // tags into a packet on the spot). Returning a pointer instead of a value
  // keeps the per-packet fast path copy-free: the old by-value form cloned the
  // whole uid_path vector + tag list on every lookup, which the hot-path
  // contract checker (DN_HOT_SCOPE, src/analysis/contracts.h) now forbids.
  Result<const CachedRoute*> RouteFor(uint64_t dst_mac, uint64_t flow_id);

  // Rebinds `flow_id` to a fresh path choice on next use (flowlet boundary).
  void ClearBinding(uint64_t dst_mac, uint64_t flow_id);

  void SetRouteChooser(RouteChooser chooser) { chooser_ = std::move(chooser); }

  // Drops every cached route that crosses the (a, b) switch edge; affected flows
  // rebind on next use. Returns the destinations left with NO routes at all: the
  // caller recomputes them from its TopoCache, or asks the controller.
  std::vector<uint64_t> InvalidateEdge(uint64_t a, uint64_t b);

  size_t size() const { return entries_.size(); }
  const PathTableStats& stats() const { return stats_; }

  // Read-only iteration over every installed entry in ascending MAC order
  // (used by the invariant-audit layer to cross-check the table against the
  // owning host's TopoCache; sorted so audit failure order is reproducible).
  void ForEachEntry(
      const std::function<void(uint64_t dst_mac, const PathTableEntry&)>& fn) const {
    std::vector<uint64_t> macs;
    macs.reserve(entries_.size());
    // dn-lint: allow(unordered-iter, order erased by the sort below)
    for (const auto& [mac, entry] : entries_) {
      macs.push_back(mac);
    }
    std::sort(macs.begin(), macs.end());
    for (uint64_t mac : macs) {
      fn(mac, entries_.at(mac));
    }
  }

 private:
  std::unordered_map<uint64_t, PathTableEntry> entries_;
  RouteChooser chooser_;
  Rng rng_;
  PathTableStats stats_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_HOST_PATH_TABLE_H_
