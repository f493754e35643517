// Path verifier (paper Section 6.1, item 3): checks an application-supplied
// route (HostAgent::SendOnPath: custom routing functions, tenant traffic in a
// virtualized deployment) before it is sent, so it cannot violate security
// policy or inject loops. Routes the host compiles itself (TopoCache::
// ComputeRoutes) are trusted. Table 2 benchmarks this check at path length 16.
#ifndef DUMBNET_SRC_HOST_PATH_VERIFIER_H_
#define DUMBNET_SRC_HOST_PATH_VERIFIER_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "src/routing/topo_db.h"
#include "src/util/result.h"

namespace dumbnet {

struct VerifyPolicy {
  size_t max_path_length = 32;
  // Per-switch admission (network virtualization hooks in here); null = allow all.
  std::function<bool(uint64_t switch_uid)> switch_allowed;
};

class PathVerifier {
 public:
  // `db` must outlive the verifier.
  PathVerifier(const TopoDb* db, VerifyPolicy policy)
      : db_(db), policy_(std::move(policy)) {}

  // Verifies a UID-level path: consecutive switches must share an up link, the
  // path must be loop-free, within length bounds, and every switch admitted by
  // policy.
  Status VerifyUidPath(const std::vector<uint64_t>& uid_path) const;

 private:
  Status CheckSwitch(uint64_t uid, std::vector<uint64_t>& visited) const;

  const TopoDb* db_;
  VerifyPolicy policy_;
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_HOST_PATH_VERIFIER_H_
