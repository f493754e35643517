// HostDirectory: where every host lives, as the controller hands it out in a
// bootstrap (paper Section 4.1). Sorted by MAC and indexed by edge switch once,
// at construction, so every host that adopts the shared directory reads it in
// O(log N) per MAC and O(peers) per switch instead of scanning it.
#ifndef DUMBNET_SRC_ROUTING_HOST_DIRECTORY_H_
#define DUMBNET_SRC_ROUTING_HOST_DIRECTORY_H_

#include <cstdint>
#include <span>
#include <vector>

#include "src/routing/wire_types.h"

namespace dumbnet {

class HostDirectory {
 public:
  // Sorts `hosts` by MAC. Among entries with the same MAC the later one wins,
  // as if they had been upserted one by one in order.
  explicit HostDirectory(std::vector<HostLocation> hosts);

  // Every host once, in ascending MAC order.
  size_t size() const { return hosts_.size(); }
  const HostLocation& operator[](size_t i) const { return hosts_[i]; }
  std::vector<HostLocation>::const_iterator begin() const { return hosts_.begin(); }
  std::vector<HostLocation>::const_iterator end() const { return hosts_.end(); }

  // Position of the first host whose MAC is not below `mac`.
  size_t LowerBound(uint64_t mac) const;
  // The entry for `mac`, or null.
  const HostLocation* Find(uint64_t mac) const;

  // Positions (for operator[]) of the hosts attached to `switch_uid`, in MAC
  // order.
  std::span<const uint32_t> On(uint64_t switch_uid) const;

  bool operator==(const HostDirectory& other) const { return hosts_ == other.hosts_; }

 private:
  std::vector<HostLocation> hosts_;
  // Positions into hosts_, ordered by (switch_uid, mac).
  std::vector<uint32_t> by_switch_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ROUTING_HOST_DIRECTORY_H_
