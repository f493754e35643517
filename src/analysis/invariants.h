// The DumbNet invariant catalog (paper Sections 4.1–4.3): pure checking functions
// over fabric state, each returning Ok or the first violation found. They are used
// three ways — directly from tests, registered on an InvariantAuditor for periodic
// audited-mode runs, and from the DUMBNET_AUDIT call sites in production code.
#ifndef DUMBNET_SRC_ANALYSIS_INVARIANTS_H_
#define DUMBNET_SRC_ANALYSIS_INVARIANTS_H_

#include <cstdint>

#include "src/analysis/audit.h"
#include "src/analysis/invariant_auditor.h"
#include "src/host/path_table.h"
#include "src/host/topo_cache.h"
#include "src/routing/path_graph.h"
#include "src/routing/tags.h"
#include "src/routing/topo_db.h"
#include "src/routing/wire_types.h"
#include "src/topo/topology.h"
#include "src/util/result.h"

namespace dumbnet {

// --- Tag stacks (Section 3.2) ----------------------------------------------------
// A well-formed on-the-wire tag stack: within the one-byte-per-hop header budget,
// every element a valid port number (1..kMaxPorts) or the reserved kIdQueryTag,
// and — when `expect_terminator` — exactly one ø, in final position.
Status AuditTagStack(const TagList& tags, bool expect_terminator,
                     size_t max_depth = audit::kMaxTagStackDepth);

// --- Path graphs (Section 4.3) ---------------------------------------------------
// Wire form: no self-links or duplicate (uid, port) attach points, dst_uid is
// reachable from src_uid over the links, and so is every link — a dangling
// WireLink that touches no path from src is a corruption.
Status AuditWirePathGraph(const WirePathGraph& graph);

// Index form, against the topology it was built from: primary/backup endpoints
// match, all referenced links exist, are up, and join two subgraph vertices, and
// the primary is loop-free (Algorithm 1 output properties).
Status AuditPathGraph(const Topology& topo, const PathGraph& pg);

// --- Host caches (Section 5.2) ---------------------------------------------------
// TopoCache ↔ PathTable coherence: every installed route's UID path runs over
// switches the cache knows, its tag list is exactly one tag per switch (final host
// port included), within budget, and the entry's destination matches the cache's
// host directory.
Status AuditCacheCoherence(const TopoCache& cache, const PathTable& table);

// --- Controller database (Sections 4.1, 4.2) -------------------------------------
// TopoDb vs the live network: every discovered switch/host exists in the ground
// truth with the same attach point, and — when `require_fresh_links` — every link
// the database believes is up is really up (a stale up-mark after a failure patch
// is exactly the "ghost topology" failure class). Pass false for periodic audits
// taken mid-simulation, where a notification may legitimately still be in flight;
// pass true at quiescent points (after recovery settles).
Status AuditTopoDbAgainstTruth(const TopoDb& db, const Topology& truth,
                               bool require_fresh_links = true);

// --- Registration helpers ---------------------------------------------------------
// Register the catalog on an auditor. Pointers must outlive the auditor.
void RegisterTopologyInvariants(InvariantAuditor& auditor, const Topology* topo);
void RegisterCacheInvariants(InvariantAuditor& auditor, const TopoCache* cache,
                             const PathTable* table, uint32_t host_index);
void RegisterTopoDbInvariants(InvariantAuditor& auditor, const TopoDb* db,
                              const Topology* truth);

}  // namespace dumbnet

#endif  // DUMBNET_SRC_ANALYSIS_INVARIANTS_H_
