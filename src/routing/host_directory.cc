#include "src/routing/host_directory.h"

#include <algorithm>

namespace dumbnet {

HostDirectory::HostDirectory(std::vector<HostLocation> hosts) {
  auto mac_less = [](const HostLocation& a, const HostLocation& b) { return a.mac < b.mac; };
  // The controller's directory is already strictly sorted; anything else is
  // sorted once here. The stable sort keeps duplicates in input order, so
  // keeping the last of each run is "a later entry wins".
  const bool strictly_sorted =
      std::adjacent_find(hosts.begin(), hosts.end(), [](const HostLocation& a,
                                                        const HostLocation& b) {
        return a.mac >= b.mac;
      }) == hosts.end();
  if (strictly_sorted) {
    hosts_ = std::move(hosts);
  } else {
    std::stable_sort(hosts.begin(), hosts.end(), mac_less);
    hosts_.reserve(hosts.size());
    for (size_t i = 0; i < hosts.size(); ++i) {
      if (i + 1 == hosts.size() || hosts[i + 1].mac != hosts[i].mac) {
        hosts_.push_back(hosts[i]);
      }
    }
  }
  by_switch_.resize(hosts_.size());
  for (size_t i = 0; i < hosts_.size(); ++i) {
    by_switch_[i] = static_cast<uint32_t>(i);
  }
  // Positions ascend with MAC, so a stable sort by switch keeps MAC order
  // within each switch.
  std::stable_sort(by_switch_.begin(), by_switch_.end(), [this](uint32_t a, uint32_t b) {
    return hosts_[a].switch_uid < hosts_[b].switch_uid;
  });
}

size_t HostDirectory::LowerBound(uint64_t mac) const {
  return static_cast<size_t>(
      std::lower_bound(hosts_.begin(), hosts_.end(), mac,
                       [](const HostLocation& loc, uint64_t key) { return loc.mac < key; }) -
      hosts_.begin());
}

const HostLocation* HostDirectory::Find(uint64_t mac) const {
  const size_t i = LowerBound(mac);
  return i < hosts_.size() && hosts_[i].mac == mac ? &hosts_[i] : nullptr;
}

std::span<const uint32_t> HostDirectory::On(uint64_t switch_uid) const {
  auto lo = std::lower_bound(
      by_switch_.begin(), by_switch_.end(), switch_uid,
      [this](uint32_t pos, uint64_t uid) { return hosts_[pos].switch_uid < uid; });
  auto hi = std::upper_bound(
      lo, by_switch_.end(), switch_uid,
      [this](uint64_t uid, uint32_t pos) { return uid < hosts_[pos].switch_uid; });
  return {lo, hi};
}

}  // namespace dumbnet
