// TopoDb: a topology store keyed by discovered switch UIDs and host MACs.
//
// Both sides of the control plane use it: the controller's global topology database
// is a TopoDb fed by the discovery service; each host's TopoCache wraps a (partial)
// TopoDb fed by path-graph responses. Internally it maintains a Topology mirror so
// all routing algorithms (shortest path, k-SP, path graph) run on it unchanged.
//
// The mirror and its switch-uid index form the db's Structure, held behind a
// shared pointer and copied on write: copies of a db share it, TopoCache
// interns equal ones, and a mutator copies it only when it is shared and the
// call changes something. A call that changes nothing keeps the pointer and
// version().
//
// Host locations live in two layers. The base is an immutable HostDirectory
// shared by pointer: every host bootstrapped from one controller directory
// holds the same object instead of a private copy of it. The overlay
// is a small per-instance map of the locations that differ from (or are missing
// from) the base — host moves, path-response locations — and wins over it.
#ifndef DUMBNET_SRC_ROUTING_TOPO_DB_H_
#define DUMBNET_SRC_ROUTING_TOPO_DB_H_

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "src/routing/host_directory.h"
#include "src/routing/wire_types.h"
#include "src/topo/topology.h"
#include "src/util/result.h"

namespace dumbnet {

class TopoDb {
 public:
  // The switch-and-link half of a db: the mirror and its uid index.
  struct Structure {
    Topology mirror;
    std::unordered_map<uint64_t, uint32_t> uid_to_index;
    std::vector<uint64_t> index_to_uid;
    // In-place edits made to this object. Not content: a weak holder that
    // recorded it can tell the content it saw is still there.
    uint64_t edits = 0;

    // Content identity: the same switches under the same uids and indices,
    // and the same links.
    bool operator==(const Structure& other) const;
    uint64_t ContentHash() const;
  };
  using SharedStructure = std::shared_ptr<const Structure>;

  TopoDb() = default;

  // Registers a switch if unseen; returns its local mirror index either way.
  // The mirror's port map starts empty and grows to the highest port a link
  // is recorded on.
  uint32_t EnsureSwitch(uint64_t uid);

  // Records a link; idempotent. Both switches are auto-registered. An invalid
  // link (port 0, a port beyond kMaxPorts, or both ends on one switch) is an
  // error that leaves the db as it was. When the link is already known,
  // `revive` controls whether it is marked up again (the authoritative patch
  // path wants that; path-graph merges must NOT resurrect a link the local
  // observation channel has marked down, or the merged-in state would depend
  // on whether the merge arrived before or after the down event).
  Status AddLink(const WireLink& link, bool revive = true);

  // Marks the link at (uid, port) up/down. Unknown attach points are ignored (a
  // notification can outrun the patch that introduces the link).
  void SetLinkState(uint64_t uid, PortNum port, bool up);

  // Records (or moves) a host, in the overlay.
  void UpsertHost(const HostLocation& loc);

  // Bulk form of UpsertHost over a whole directory, with the same result as
  // calling it once per entry in MAC order. The directory becomes the shared
  // base, kept by pointer. Null is a no-op.
  using SharedDirectory = std::shared_ptr<const HostDirectory>;
  void UpsertHosts(SharedDirectory directory);

  // Merges a path graph received from the controller: its switches and links all
  // become part of this db. New links are inserted up; links already known keep
  // their current state (link *state* flows through the observation channel —
  // gossip events and patches — never through structure merges). All or
  // nothing: a graph with an invalid link (port 0, a port beyond kMaxPorts, or
  // both ends on one switch) is an error that leaves the db as it was.
  Status MergePathGraph(const WirePathGraph& graph);

  // --- Lookups ---------------------------------------------------------------
  bool KnowsSwitch(uint64_t uid) const { return structure_->uid_to_index.count(uid) > 0; }
  Result<uint32_t> IndexOf(uint64_t uid) const;
  uint64_t UidOf(uint32_t index) const { return structure_->index_to_uid[index]; }
  Result<HostLocation> LocateHost(uint64_t mac) const;
  // Every known host once, MAC-sorted, overlay entries winning over the base.
  std::vector<HostLocation> Directory() const;

  size_t switch_count() const { return structure_->index_to_uid.size(); }
  size_t host_count() const;
  size_t link_count() const { return structure_->mirror.link_count(); }

  // The shared base directory (null before the first UpsertHosts) and the
  // number of overlay entries; memory accounting and tests read these.
  const SharedDirectory& host_base() const { return base_hosts_; }
  size_t overlay_host_count() const { return hosts_.size(); }

  // True if a link between (uid_a, port_a) and (uid_b, port_b) is recorded.
  bool HasLink(const WireLink& link) const;

  // The full link descriptor plugged into (uid, port), if any.
  Result<WireLink> LinkAt(uint64_t uid, PortNum port) const;

  // The Topology mirror routing algorithms run against. Switch indices in the
  // mirror correspond to UidOf()/IndexOf(). A mutation, or ShareStructure, can
  // free the object behind the reference: re-read it after either.
  const Topology& mirror() const { return structure_->mirror; }

  // The structure this db holds, maybe shared with other dbs.
  const SharedStructure& structure() const { return structure_; }
  // Holds `equal` in place of the current structure. The caller has checked
  // that the contents are equal (TopoCache's interner does), so every lookup
  // answers as before and version() stays: only where the bytes live changes.
  void ShareStructure(SharedStructure equal) const { structure_ = std::move(equal); }

  // Monotonic *mirror* mutation counter: bumped exactly when the switch graph
  // changes (new switch, link added/detached, link state flipped). Host upserts,
  // no-op link re-adds/re-revives and no-op merges leave it alone, so caches
  // derived from the mirror (adjacency snapshots, SSSP trees, wire path
  // graphs) stay valid through the host-directory churn of a large bring-up.
  // Note it is per-instance: replacing a TopoDb wholesale resets the
  // numbering, so caches must also be dropped when the object itself changes.
  uint64_t version() const { return version_; }

  // Converts a mirror-index path to UIDs and back.
  std::vector<uint64_t> PathToUids(const std::vector<uint32_t>& path) const;
  Result<std::vector<uint32_t>> PathFromUids(const std::vector<uint64_t>& path) const;

  // Compiles a UID path into routing tags: the out-port at each switch, then
  // `final_port` (the destination host's attach port). ø not included.
  Result<std::vector<PortNum>> CompileTagsForUidPath(const std::vector<uint64_t>& path,
                                                     PortNum final_port) const;

 private:
  // The structure, made this db's own first if it is shared. Only for a call
  // that changes it.
  Structure& Mutable();
  // Ok unless the link is invalid: port 0, a port beyond kMaxPorts, or both
  // ends on one switch. The only ways AddLink can fail.
  static Status CheckLink(const WireLink& link);
  Result<LinkIndex> FindLinkAt(uint64_t uid, PortNum port) const;
  // The base's entry for `mac`, or null.
  const HostLocation* FindInBase(uint64_t mac) const {
    return base_hosts_ != nullptr ? base_hosts_->Find(mac) : nullptr;
  }

  static const SharedStructure& EmptyStructure();

  // Never null, but in a moved-from db. Mutable for ShareStructure alone.
  mutable SharedStructure structure_ = EmptyStructure();
  // Base: shared and immutable. Overlay: never holds an entry equal to the
  // base's for the same MAC.
  SharedDirectory base_hosts_;
  std::unordered_map<uint64_t, HostLocation> hosts_;
  uint64_t version_ = 0;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ROUTING_TOPO_DB_H_
