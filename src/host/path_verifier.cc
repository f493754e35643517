#include "src/host/path_verifier.h"

#include <algorithm>

namespace dumbnet {

Status PathVerifier::CheckSwitch(uint64_t uid, std::vector<uint64_t>& visited) const {
  if (policy_.switch_allowed && !policy_.switch_allowed(uid)) {
    return Error(ErrorCode::kPermissionDenied,
                 "policy forbids switch " + std::to_string(uid));
  }
  if (std::find(visited.begin(), visited.end(), uid) != visited.end()) {
    return Error(ErrorCode::kInvalidArgument, "path revisits a switch");
  }
  visited.push_back(uid);
  return Status::Ok();
}

Status PathVerifier::VerifyUidPath(const std::vector<uint64_t>& uid_path) const {
  if (uid_path.empty()) {
    return Error(ErrorCode::kInvalidArgument, "empty path");
  }
  if (uid_path.size() > policy_.max_path_length) {
    return Error(ErrorCode::kOutOfRange, "path exceeds maximum length");
  }
  std::vector<uint64_t> visited;
  visited.reserve(uid_path.size());
  if (Status s = CheckSwitch(uid_path.front(), visited); !s.ok()) {
    return s;
  }
  for (size_t i = 0; i + 1 < uid_path.size(); ++i) {
    if (Status s = CheckSwitch(uid_path[i + 1], visited); !s.ok()) {
      return s;
    }
    // Consecutive switches must share an *up* link in the cached topology.
    auto a = db_->IndexOf(uid_path[i]);
    auto b = db_->IndexOf(uid_path[i + 1]);
    if (!a.ok() || !b.ok()) {
      return Error(ErrorCode::kNotFound, "path uses an unknown switch");
    }
    const Topology& mirror = db_->mirror();
    const SwitchInfo& sw = mirror.switch_at(a.value());
    bool linked = false;
    for (PortNum p = 1; p <= sw.num_ports && !linked; ++p) {
      LinkIndex li = sw.port_link[p];
      if (li == kInvalidLink) {
        continue;
      }
      const Link& l = mirror.link_at(li);
      if (!l.up) {
        continue;
      }
      const Endpoint& peer = l.Peer(NodeId::Switch(a.value()));
      linked = peer.node.is_switch() && peer.node.index == b.value();
    }
    if (!linked) {
      return Error(ErrorCode::kUnavailable, "no up link between consecutive switches");
    }
  }
  return Status::Ok();
}

}  // namespace dumbnet
