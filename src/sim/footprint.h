// Event footprint tracking: the dynamic half of the determinism toolchain.
//
// dn-lint (src/analysis/lint.cc) catches *syntactic* nondeterminism — hash-map
// iteration, raw randomness, wall clocks. This layer catches *semantic* ordering
// races: two events that fire at the same virtual timestamp, are ordered only by
// the scheduler's FIFO tie-break, and touch the same entity with at least one
// write. Such a pair is a determinism hazard — the run's result silently depends
// on an ordering the model never promised.
//
// Event handlers declare what they touch through four macros:
//
//   DN_FP_SCOPE(label, entity)        — names the running handler ("host.link_state")
//   DN_FP_READ(space, id)             — handler reads entity `id` in `space`
//   DN_FP_WRITE(space, id)            — handler writes it (order-sensitive)
//   DN_FP_COMMUTES(space, id, reason) — handler writes it, but the write commutes
//                                       with every other commuting write (max-merge,
//                                       set-union, idempotent dedup...). This is the
//                                       machine-checked form of the
//                                       `dn-explore: commutes(<reason>)` annotation.
//
// One runtime gate: SetEnabled(true) opts a run in (default OFF, the opposite
// of telemetry — footprints cost per-access vector pushes, so only race-hunting
// runs pay them). The simulator only collects within same-timestamp batches of
// two or more events; singleton batches cannot race and cost nothing.
//
// Threading: collection state is thread-local. A wire-runtime process runs one
// node per OS thread, each with its own simulator (src/wire/node.h), so each
// node thread records the footprints of its own events and hazard detection
// stays correct per node; frames between nodes are not same-batch hazards.
// The runtime enable bit is an atomic read by every thread.
#ifndef DUMBNET_SRC_SIM_FOOTPRINT_H_
#define DUMBNET_SRC_SIM_FOOTPRINT_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "src/sim/time.h"

namespace dumbnet {
namespace footprint {

// Entity namespaces. An entity is (space, 64-bit id); ids in different spaces
// never conflict. Compose structured ids with FpKey below.
enum class FpSpace : uint8_t {
  kHost = 0,      // per-host agent state (dedup sets, patch cursor, bootstrap)
  kSwitch,        // per-switch state (alarm suppression windows, port counters)
  kLink,          // ground-truth link state (reads by forwarding, writes by flaps)
  kLinkQueue,     // per-direction egress serialization point in Network
  kPathTable,     // one host's route cache, per destination
  kTopoCache,     // one host's topology mirror, per link
  kCtrlDb,        // controller topology database, per link / directory entry
  kCtrlLog,       // controller replicated log, per logged entity
  kCtrlCpu,       // controller single-server CPU queue (serialization point)
  kDiscovery,     // prober state: inflight probes, port bindings
  kFlow,          // one transport flow's sender/receiver state
  kScenario,      // test/CLI-injected shared state (explorer regression fixtures)
};

const char* FpSpaceName(FpSpace space);

enum class FpAccess : uint8_t {
  kRead = 0,
  kWrite,
  kCommute,  // a write asserted to commute with other commuting writes
};

const char* FpAccessName(FpAccess access);

// Mixes two (or three) ids into one entity id. Collisions only blur hazard
// attribution, they never corrupt simulation state, so a cheap mix is fine.
constexpr uint64_t FpKey(uint64_t a, uint64_t b) {
  uint64_t x = a * 0x9E3779B97F4A7C15ULL + 0x2545F4914F6CDD1DULL;
  x ^= b + 0x9E3779B97F4A7C15ULL + (x << 6) + (x >> 2);
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ULL;
  return x ^ (x >> 27);
}
constexpr uint64_t FpKey(uint64_t a, uint64_t b, uint64_t c) {
  return FpKey(FpKey(a, b), c);
}

// One declared access.
struct FpRecord {
  FpSpace space = FpSpace::kHost;
  FpAccess access = FpAccess::kRead;
  uint64_t id = 0;
  const char* reason = nullptr;  // commute justification (string literal)
};

// Everything one event declared while it ran.
struct EventFootprint {
  const char* label = nullptr;  // DN_FP_SCOPE label (string literal), may be null
  uint64_t entity = 0;          // DN_FP_SCOPE entity (who ran: mac, uid, flow id)
  std::vector<FpRecord> accesses;
};

// A conflicting pair of same-timestamp events. Positions are *canonical*: the
// event's index within its batch sorted by scheduling seq (the order the
// untouched simulator would execute). Canonical positions are stable across
// permuted re-executions — raw seq numbers are not, because permuting one batch
// shifts every seq allocated afterwards — so schedules and hazards both speak
// in (batch_index, position).
struct BatchHazard {
  TimeNs at = 0;
  uint64_t batch_index = 0;  // index among size>=2 batches since sim start
  uint32_t batch_size = 0;
  uint32_t pos_a = 0;  // canonical positions, pos_a < pos_b
  uint32_t pos_b = 0;
  uint64_t seq_a = 0;
  uint64_t seq_b = 0;
  const char* label_a = nullptr;
  const char* label_b = nullptr;
  uint64_t entity_a = 0;
  uint64_t entity_b = 0;
  FpSpace space = FpSpace::kHost;  // the contested entity
  uint64_t id = 0;
  FpAccess access_a = FpAccess::kRead;
  FpAccess access_b = FpAccess::kRead;
  const char* reason_a = nullptr;  // commute reasons, when the access commutes
  const char* reason_b = nullptr;
};

namespace internal {
// The opt-in bit is process-wide and read from every node thread, so it is
// atomic (relaxed: flipping it mid-run only blurs which events get tracked,
// never corrupts state). Whether a tracked event is *currently* executing is a
// property of one simulator's run loop, hence thread-local.
extern std::atomic<bool> g_enabled;      // runtime opt-in (default off)
extern thread_local bool g_collecting;   // a tracked event is executing here
}  // namespace internal
inline bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on);
inline bool Active() { return Enabled() && internal::g_collecting; }

// Accumulates the running event's footprint. The Simulator brackets each event
// of a tracked batch with BeginEvent/TakeEvent; the DN_FP_* macros feed Record.
// Global() is a thread-local instance, so each node thread collects its own
// simulator's batches.
class Collector {
 public:
  static Collector& Global();

  void BeginEvent();
  EventFootprint TakeEvent();

  void SetScope(const char* label, uint64_t entity) {
    cur_.label = label;
    cur_.entity = entity;
  }
  void Record(FpSpace space, FpAccess access, uint64_t id, const char* reason) {
    cur_.accesses.push_back(FpRecord{space, access, id, reason});
  }

 private:
  EventFootprint cur_;
};

// One event's effective access to one entity after collapsing its records.
struct FpEffect {
  FpAccess access = FpAccess::kRead;
  const char* reason = nullptr;  // set iff access == kCommute
};

// Collapse rule (Write > Commute > Read): a handler that reads and then
// commute-updates an entity is asserting the whole read-modify-write commutes.
// Two commute records with *different* reasons escalate to Write — the handler
// claimed membership in two incompatible commuting families, so no single
// algebraic argument covers the combined update.
FpEffect MergeEffects(const FpEffect& a, const FpEffect& b);

// Conflict rule between two events' effective accesses: any pair involving a
// plain Write conflicts; Read-vs-Read is clean; Commute-vs-Commute is clean only
// when both claim the *same* reason (compared by string content — the commuting
// family is the reason literal, and max-merge does not commute with set-union);
// Read-vs-Commute conflicts because the commute claim covers other writers, not
// observers. Exposed for the unit tests; the Simulator applies the same rules
// per batch.
bool EffectsConflict(const FpEffect& a, const FpEffect& b);

// True when both reasons are null or both compare equal by strcmp.
bool SameReason(const char* a, const char* b);

// One-line human rendering: "host.link_state[0x2a] W topo-cache/0x... vs ...".
// Used by the default hazard report and the explorer CLI.
void FormatHazard(const BatchHazard& hazard, std::string& out);

}  // namespace footprint
}  // namespace dumbnet

// Footprint declaration macros. One predictable branch per call site when
// runtime-disabled (or outside a tracked batch).
#define DN_FP_SCOPE(label_, entity_)                                          \
  do {                                                                        \
    if (::dumbnet::footprint::Active()) {                                     \
      ::dumbnet::footprint::Collector::Global().SetScope((label_), (entity_)); \
    }                                                                         \
  } while (0)

#define DN_FP_READ(space_, id_)                                               \
  do {                                                                        \
    if (::dumbnet::footprint::Active()) {                                     \
      ::dumbnet::footprint::Collector::Global().Record(                       \
          ::dumbnet::footprint::FpSpace::space_,                              \
          ::dumbnet::footprint::FpAccess::kRead, (id_), nullptr);             \
    }                                                                         \
  } while (0)

#define DN_FP_WRITE(space_, id_)                                              \
  do {                                                                        \
    if (::dumbnet::footprint::Active()) {                                     \
      ::dumbnet::footprint::Collector::Global().Record(                       \
          ::dumbnet::footprint::FpSpace::space_,                              \
          ::dumbnet::footprint::FpAccess::kWrite, (id_), nullptr);            \
    }                                                                         \
  } while (0)

#define DN_FP_COMMUTES(space_, id_, reason_)                                  \
  do {                                                                        \
    if (::dumbnet::footprint::Active()) {                                     \
      ::dumbnet::footprint::Collector::Global().Record(                       \
          ::dumbnet::footprint::FpSpace::space_,                              \
          ::dumbnet::footprint::FpAccess::kCommute, (id_), (reason_));        \
    }                                                                         \
  } while (0)

#endif  // DUMBNET_SRC_SIM_FOOTPRINT_H_
