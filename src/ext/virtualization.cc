#include "src/ext/virtualization.h"

#include "src/analysis/invariants.h"

namespace dumbnet {

VerifyPolicy VirtualNetwork::MakePolicy() const {
  VerifyPolicy policy;
  policy.switch_allowed = [this](uint64_t uid) { return SwitchAllowed(uid); };
  return policy;
}

TopoDb VirtualNetwork::FilterView(const TopoDb& full) const {
  TopoDb view;
  const Topology& mirror = full.mirror();
  for (LinkIndex li = 0; li < mirror.link_count(); ++li) {
    const Link& l = mirror.link_at(li);
    if (l.detached || !l.a.node.is_switch() || !l.b.node.is_switch()) {
      continue;
    }
    uint64_t ua = full.UidOf(l.a.node.index);
    uint64_t ub = full.UidOf(l.b.node.index);
    if (!SwitchAllowed(ua) || !SwitchAllowed(ub)) {
      continue;
    }
    (void)view.AddLink(WireLink{ua, l.a.port, ub, l.b.port});
    if (!l.up) {
      view.SetLinkState(ua, l.a.port, false);
    }
  }
  for (const HostLocation& loc : full.Directory()) {
    if (HostAllowed(loc.mac) && SwitchAllowed(loc.switch_uid)) {
      view.UpsertHost(loc);
    }
  }
  return view;
}

Result<WirePathGraph> VirtualNetwork::FilterPathGraph(const WirePathGraph& graph) const {
  if (!SwitchAllowed(graph.src_uid) || !SwitchAllowed(graph.dst_uid)) {
    return Error(ErrorCode::kPermissionDenied, "endpoints outside the tenant slice");
  }
  WirePathGraph out;
  out.src_uid = graph.src_uid;
  out.dst_uid = graph.dst_uid;
  for (const WireLink& l : graph.links) {
    if (SwitchAllowed(l.uid_a) && SwitchAllowed(l.uid_b)) {
      out.links.push_back(l);
    }
  }
  if (Status s = AuditWirePathGraph(out); !s.ok()) {
    return Error(ErrorCode::kUnavailable, "slice cuts the path graph: " + s.error().message());
  }
  return out;
}

void VirtualizationService::RegisterTenant(uint32_t tenant_id, VirtualNetwork network) {
  tenants_.emplace(tenant_id, std::move(network));
}

Result<const VirtualNetwork*> VirtualizationService::Tenant(uint32_t tenant_id) const {
  auto it = tenants_.find(tenant_id);
  if (it == tenants_.end()) {
    return Error(ErrorCode::kNotFound, "unknown tenant");
  }
  return &it->second;
}

Status VirtualizationService::VerifyTenantPath(uint32_t tenant_id, const TopoDb& db,
                                               const std::vector<uint64_t>& uid_path) const {
  auto tenant = Tenant(tenant_id);
  if (!tenant.ok()) {
    return tenant.error();
  }
  PathVerifier verifier(&db, tenant.value()->MakePolicy());
  return verifier.VerifyUidPath(uid_path);
}

}  // namespace dumbnet
