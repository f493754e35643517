#include "src/host/path_table.h"

#include <algorithm>

#include "src/analysis/audit.h"
#include "src/analysis/contracts.h"
#include "src/telemetry/telemetry.h"

namespace dumbnet {

bool CachedRoute::UsesEdge(uint64_t a, uint64_t b) const {
  for (size_t i = 0; i + 1 < uid_path.size(); ++i) {
    if ((uid_path[i] == a && uid_path[i + 1] == b) ||
        (uid_path[i] == b && uid_path[i + 1] == a)) {
      return true;
    }
  }
  return false;
}

void PathTable::Install(uint64_t dst_mac, PathTableEntry entry) {
  // Invariant (Section 5.2): a compiled route carries one tag per switch on its
  // UID path — out-ports for every transit switch plus the final host port.
  for (const CachedRoute& r : entry.paths) {
    DUMBNET_AUDIT(r.tags.size() == r.uid_path.size(),
                  "installed route's tag count does not match its UID path");
  }
  entries_[dst_mac] = std::move(entry);
}

const PathTableEntry* PathTable::Find(uint64_t dst_mac) const {
  auto it = entries_.find(dst_mac);
  return it == entries_.end() ? nullptr : &it->second;
}

Result<const CachedRoute*> PathTable::RouteFor(uint64_t dst_mac, uint64_t flow_id) {
  // Per-packet fast path: an existing valid binding resolves with two hash
  // finds and zero allocations (paper Figure 4 — the lookup every data packet
  // pays). Everything below the exempt markers is the declared-cold side:
  // misses, stale-binding failover, and the initial path choice.
  DN_HOT_SCOPE("path_table.route_for");
  auto it = entries_.find(dst_mac);
  if (it == entries_.end()) {
    DN_HOT_EXEMPT("cache miss: Error carries an allocated message");
    ++stats_.misses;
    return Error(ErrorCode::kNotFound, "no entry for destination");
  }
  PathTableEntry& entry = it->second;
  if (entry.paths.empty()) {
    DN_HOT_EXEMPT("cache miss: Error carries an allocated message");
    ++stats_.misses;
    return Error(ErrorCode::kNotFound, "entry has no usable routes");
  }

  auto bound = entry.flow_binding.find(flow_id);
  if (bound != entry.flow_binding.end()) {
    if (bound->second < entry.paths.size()) {
      ++stats_.hits;
      return &entry.paths[bound->second];
    }
    // Stale binding (path invalidated since); fall through and rebind. This is
    // the common failover: the flow moves to a surviving cached path.
    DN_HOT_EXEMPT("stale-binding failover: counter registration may allocate");
    entry.flow_binding.erase(bound);
    ++stats_.rebinds;
    DN_COUNTER_INC("host.rebinds");
  }

  // First packet of a flow (or post-failover rebind): chooser, RNG pick, and
  // the binding insert all may allocate — declared cold by contract.
  DN_HOT_EXEMPT("flow (re)bind: chooser + binding insert allocate");
  size_t pick = SIZE_MAX;
  if (chooser_) {
    pick = chooser_(entry, flow_id);
  }
  if (pick >= entry.paths.size()) {
    // Default policy: load-balance uniformly over the *minimal-length* cached
    // paths (the equal-cost set); longer k-shortest entries stay as failover
    // material only.
    size_t min_len = SIZE_MAX;
    for (const CachedRoute& r : entry.paths) {
      min_len = std::min(min_len, r.uid_path.size());
    }
    size_t count = 0;
    for (const CachedRoute& r : entry.paths) {
      count += (r.uid_path.size() == min_len) ? 1u : 0u;
    }
    size_t target = rng_.PickIndex(count);
    for (size_t i = 0; i < entry.paths.size(); ++i) {
      if (entry.paths[i].uid_path.size() == min_len && target-- == 0) {
        pick = i;
        break;
      }
    }
  }
  entry.flow_binding[flow_id] = pick;
  ++stats_.hits;
  return &entry.paths[pick];
}

void PathTable::ClearBinding(uint64_t dst_mac, uint64_t flow_id) {
  auto it = entries_.find(dst_mac);
  if (it != entries_.end()) {
    it->second.flow_binding.erase(flow_id);
  }
}

std::vector<uint64_t> PathTable::InvalidateEdge(uint64_t a, uint64_t b) {
  std::vector<uint64_t> starved;
  // Walk entries in ascending MAC order: the starved list drives re-query (and
  // thus event) order at the caller, so it must not depend on hash layout.
  std::vector<uint64_t> macs;
  macs.reserve(entries_.size());
  // dn-lint: allow(unordered-iter, order erased by the sort below)
  for (const auto& [mac, unused_entry] : entries_) {
    macs.push_back(mac);
  }
  std::sort(macs.begin(), macs.end());
  for (uint64_t mac : macs) {
    PathTableEntry& entry = entries_[mac];
    const auto dead = [&](const CachedRoute& r) { return r.UsesEdge(a, b); };
    if (std::erase_if(entry.paths, dead) > 0) {
      // All bindings into `paths` are suspect after the erase; drop them and let
      // flows rebind (counted once per entry, not per flow, to stay cheap).
      entry.flow_binding.clear();
      ++stats_.rebinds;
      DN_COUNTER_INC("host.rebinds");
    }
    if (entry.paths.empty()) {
      starved.push_back(mac);
    }
  }
  return starved;
}

}  // namespace dumbnet
