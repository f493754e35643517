#include "src/host/topo_cache.h"

#include <map>
#include <tuple>
#include <unordered_map>

#include "src/routing/graph.h"
#include "src/sim/footprint.h"

namespace dumbnet {

// The interned unit: one db structure and the routing state derived from it.
// Caches on one thread whose structures are equal hold one structure and one
// unit, so its switch graph is built once and each Yen run is made once.
struct RouteSnapshot {
  RouteSnapshot(const TopoDb::SharedStructure& s, uint64_t h)
      : structure(s), edits(s->edits), hash(h), graph(s->mirror) {}

  // The structure this unit was made for, or null once it died or was edited
  // in place (its owner no longer shared it).
  TopoDb::SharedStructure Live() const {
    TopoDb::SharedStructure s = structure.lock();
    return s != nullptr && s->edits == edits ? s : nullptr;
  }

  // Weak, so a unit does not stop the structure's sole owner from editing it
  // in place.
  const std::weak_ptr<const TopoDb::Structure> structure;
  const uint64_t edits;
  const uint64_t hash;
  const SwitchGraph graph;
  // KShortestPaths results on `graph`, keyed on (src_idx, dst_idx, k). Exact:
  // Yen draws no randomness, and every mirror mutation bumps the db version,
  // which moves the cache to another unit.
  std::map<std::tuple<uint32_t, uint32_t, uint32_t>, Result<std::vector<SwitchPath>>> memo;
};

namespace {

constexpr const char kFpSharedKspMemo[] =
    "memo of a pure function of an immutable snapshot: every writer stores the same paths";

// Live units by structure content hash. Per thread: a wire-runtime process runs
// one node per thread, and the memo is written without a lock. Entries are
// weak, so a unit dies with its last cache; dead entries are swept in bulk.
class StructureInterner {
 public:
  // The live unit whose structure equals `mine`, or a new unit for `mine`.
  std::shared_ptr<RouteSnapshot> Intern(const TopoDb::SharedStructure& mine) {
    const uint64_t hash = mine->ContentHash();
    auto [lo, hi] = table_.equal_range(hash);
    for (auto it = lo; it != hi; ++it) {
      std::shared_ptr<RouteSnapshot> unit = it->second.lock();
      if (unit == nullptr) {
        continue;
      }
      if (auto live = unit->Live(); live != nullptr && (live == mine || *live == *mine)) {
        return unit;
      }
    }
    if (table_.size() >= sweep_at_) {
      std::erase_if(table_, [](const auto& entry) {
        std::shared_ptr<RouteSnapshot> unit = entry.second.lock();
        return unit == nullptr || unit->Live() == nullptr;
      });
      sweep_at_ = std::max<size_t>(kMinSweep, 2 * table_.size());
    }
    // Not make_shared: the weak entry must not pin the unit's storage.
    std::shared_ptr<RouteSnapshot> fresh(new RouteSnapshot(mine, hash));
    table_.emplace(hash, fresh);
    return fresh;
  }

 private:
  static constexpr size_t kMinSweep = 1024;
  std::unordered_multimap<uint64_t, std::weak_ptr<RouteSnapshot>> table_;
  size_t sweep_at_ = kMinSweep;
};

}  // namespace

Status TopoCache::Integrate(const WirePathGraph& graph, const HostLocation& dst) {
  if (Status s = db_.MergePathGraph(graph); !s.ok()) {
    return s;
  }
  db_.UpsertHost(dst);
  return Status::Ok();
}

Result<std::pair<uint64_t, uint64_t>> TopoCache::ResolveEdge(uint64_t switch_uid,
                                                             PortNum port) const {
  auto idx = db_.IndexOf(switch_uid);
  if (!idx.ok()) {
    return idx.error();
  }
  LinkIndex li = db_.mirror().LinkAtPort(idx.value(), port);
  if (li == kInvalidLink) {
    return Error(ErrorCode::kNotFound, "link not cached");
  }
  const Link& l = db_.mirror().link_at(li);
  return std::pair<uint64_t, uint64_t>{db_.UidOf(l.a.node.index), db_.UidOf(l.b.node.index)};
}

RouteSnapshot& TopoCache::Snapshot() const {
  if (snapshot_ == nullptr || graph_version_ != db_.version()) {
    static thread_local StructureInterner interner;
    snapshot_ = interner.Intern(db_.structure());
    if (TopoDb::SharedStructure live = snapshot_->Live(); live != db_.structure()) {
      db_.ShareStructure(std::move(live));  // drops this cache's equal copy
    }
    graph_version_ = db_.version();
  }
  return *snapshot_;
}

const SwitchGraph& TopoCache::RoutingGraph() const { return Snapshot().graph; }

Result<CachedRoute> TopoCache::CompileUidPath(const std::vector<uint64_t>& uid_path,
                                              PortNum final_port) const {
  auto tags = db_.CompileTagsForUidPath(uid_path, final_port);
  if (!tags.ok()) {
    return tags.error();
  }
  CachedRoute route;
  route.uid_path = uid_path;
  route.tags = std::move(tags.value());
  return route;
}

Result<std::vector<CachedRoute>> TopoCache::ComputeRoutes(uint64_t src_uid,
                                                          uint64_t dst_mac,
                                                          uint32_t k) const {
  auto dst = db_.LocateHost(dst_mac);
  if (!dst.ok()) {
    return dst.error();
  }
  auto src_idx = db_.IndexOf(src_uid);
  if (!src_idx.ok()) {
    return src_idx.error();
  }
  auto dst_idx = db_.IndexOf(dst.value().switch_uid);
  if (!dst_idx.ok()) {
    return dst_idx.error();
  }
  RouteSnapshot& snap = Snapshot();
  DN_FP_COMMUTES(kTopoCache, footprint::FpKey(snap.hash, src_idx.value(), dst_idx.value()),
                 kFpSharedKspMemo);
  auto [it, inserted] = snap.memo.try_emplace(
      std::make_tuple(src_idx.value(), dst_idx.value(), k), std::vector<SwitchPath>());
  if (inserted) {
    // One scratch per thread: a wire-runtime process runs one node per thread.
    static thread_local KspScratch scratch;
    it->second = KShortestPaths(snap.graph, src_idx.value(), dst_idx.value(), k, scratch);
    ++route_stats_.ksp_runs;
  } else {
    ++route_stats_.ksp_memo_hits;
  }
  const Result<std::vector<SwitchPath>>& paths = it->second;
  if (!paths.ok()) {
    return paths.error();
  }
  std::vector<CachedRoute> routes;
  for (const SwitchPath& p : paths.value()) {
    auto route = CompileUidPath(db_.PathToUids(p), dst.value().port);
    if (route.ok()) {
      routes.push_back(std::move(route.value()));
    }
  }
  if (routes.empty()) {
    return Error(ErrorCode::kUnavailable, "no compilable route in cache");
  }
  return routes;
}

size_t TopoCache::ApproxBytes() const {
  // Switches: uid + index maps; links: endpoints + state; hosts: location records.
  auto share = [](size_t bytes, long holders) { return bytes / static_cast<size_t>(holders); };
  size_t shared_hosts = 0;
  if (const auto& base = db_.host_base(); base != nullptr) {
    shared_hosts = share(base->size() * 24, base.use_count());
  }
  return share(db_.switch_count() * 24 + db_.link_count() * 20, db_.structure().use_count()) +
         db_.overlay_host_count() * 24 + shared_hosts;
}

}  // namespace dumbnet
