// Adversarial churn: deterministic, seed-driven failure-scenario generation and
// execution against a SimulatedFabric ("Ghost in the Datacenter" failure modes,
// see PAPERS.md and the ROADMAP churn item).
//
// A ChaosSchedule is a time-sorted list of ground-truth mutations:
//   - flapping links: alternating down/up transitions with exponential dwell
//     times (per-link forked Rng streams, so schedules are stable under config
//     changes to other links),
//   - gray failures: a link stays up but eats a seeded fraction of packets
//     (Link::loss_ppm; the drop stream lives in src/net),
//   - correlated outages: every inter-switch link of one victim switch dies at
//     the same virtual instant (per-spine/per-pod outage models).
//
// Schedules are *well-formed by construction*: every touched link is forced
// down at `horizon - settle` and revived in one simultaneous restore at
// `horizon`, after all gray loss has been cleared. The final "up" floods
// therefore travel over a fully healthy fabric, so a correct control plane must
// converge to the all-up state no matter which notification copies were lost
// mid-churn — which is exactly what makes end-of-run convergence checking
// sound. Delayed/reordered notification delivery is injected separately via
// HostAgent::SetNotificationInterceptor.
//
// Serialized schedules are compatible with dumbnet-explore's schedule v1 format
// (chaos actions ride in `#`-comment lines explore's parser skips), so a
// failing-seed artifact can be fed to either tool.
#ifndef DUMBNET_SRC_CHAOS_CHAOS_H_
#define DUMBNET_SRC_CHAOS_CHAOS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/core/fabric.h"
#include "src/sim/time.h"
#include "src/topo/topology.h"
#include "src/util/result.h"

namespace dumbnet {
namespace chaos {

// One scheduled mutation of the ground-truth topology. `at` is relative to the
// moment RunSchedule starts (bring-up already consumed virtual time), so a
// schedule replays identically no matter how long bring-up took.
struct ChaosAction {
  enum class Kind : uint8_t {
    kLinkDown = 0,
    kLinkUp = 1,
    kGraySet = 2,   // loss_ppm carries the drop rate
    kGrayClear = 3,
  };

  TimeNs at = 0;
  Kind kind = Kind::kLinkDown;
  LinkIndex link = kInvalidLink;
  uint32_t loss_ppm = 0;  // kGraySet only

  bool operator==(const ChaosAction&) const = default;
};

struct ChaosSchedule {
  std::vector<ChaosAction> actions;  // sorted by `at`, stable insertion order

  bool empty() const { return actions.empty(); }
  // Links with up/down transitions (flaps + outages), deduplicated ascending.
  std::vector<LinkIndex> TouchedLinks() const;
  // Links with gray-loss actions, deduplicated ascending.
  std::vector<LinkIndex> GrayLinks() const;
};

struct FlapConfig {
  uint32_t links = 2;            // how many inter-switch links flap
  TimeNs mean_up_dwell = Ms(20);  // exponential dwell while up
  TimeNs mean_down_dwell = Ms(4); // exponential dwell while down
  TimeNs min_dwell = Ms(1);       // floor (below the 1 ms detect delay is noise)
};

struct GrayConfig {
  uint32_t links = 1;             // how many links turn gray
  uint32_t min_loss_ppm = 50000;  // 5 %
  uint32_t max_loss_ppm = 400000; // 40 %
};

struct OutageConfig {
  bool enabled = true;       // one correlated outage (all links of one switch)
  TimeNs duration = Ms(15);
};

struct ChaosConfig {
  uint64_t seed = 1;
  TimeNs start = Ms(5);     // first possible transition
  TimeNs horizon = Ms(120); // the simultaneous final restore happens here
  // Gap between the forced final downs / gray clears and the restore. Must
  // exceed the fabric's link-detect delay so the forced-down floods drain.
  TimeNs settle = Ms(2);
  FlapConfig flap;
  GrayConfig gray;
  OutageConfig outage;
};

// Builds a well-formed schedule from the seed. Deterministic: same topology and
// config, same schedule. Only inter-switch links are touched (host uplinks stay
// healthy so every host keeps hearing the control plane).
ChaosSchedule GenerateSchedule(const Topology& topo, const ChaosConfig& config);

// Text form. The header lines make the file a valid (empty) dumbnet-explore
// schedule; chaos actions are `# chaos <at_ns> <down|up|gray|grayclear> <link>
// [ppm]` comment lines. `note` (optional, e.g. "seed 17") is embedded as a
// comment for humans.
std::string SerializeSchedule(const ChaosSchedule& schedule,
                              const std::string& note = std::string());
Result<ChaosSchedule> ParseSchedule(const std::string& text);

// Hooks for RunSchedule. All callbacks run on the driving thread between
// simulator runs, so they may inspect any fabric state.
struct RunHooks {
  // Called before the actions at `at` are applied (inject traffic here).
  std::function<void(TimeNs at)> on_boundary;
  // When > 0, the fabric additionally stops every `sample_period` to run
  // `on_sample` (staleness probes).
  TimeNs sample_period = 0;
  std::function<void(TimeNs at)> on_sample;
};

// Drives `fabric` through the schedule: advances virtual time boundary by
// boundary (RunUntil), applies each instant's actions from the driving thread
// between runs, then runs the fabric to quiescence. Deterministic: the same
// schedule on the same fabric replays bit-identically.
void RunSchedule(SimulatedFabric& fabric, const ChaosSchedule& schedule,
                 const RunHooks& hooks = RunHooks());

// Applies actions[begin, end) to the ground truth. The fabric must be
// quiescent. Exposed for tests; RunSchedule is the normal driver.
void ApplyActions(SimulatedFabric& fabric, const ChaosSchedule& schedule,
                  size_t begin, size_t end);

// Counts (viewer, link) pairs whose cached mirror state disagrees with the
// ground truth right now, over `links`. Viewers are the controller database
// plus every host's TopoCache; pairs where the viewer has never cached the
// link are skipped (you cannot be stale about an edge you never learned).
// This is the instantaneous staleness-window probe.
uint32_t CountStaleEntries(SimulatedFabric& fabric, const std::vector<LinkIndex>& links);

// End-of-run convergence check over `links`: every cached copy must agree with
// the ground truth. Returns one human-readable line per violation (empty =
// converged). Run only at quiescence — mid-run disagreement is legitimate.
std::vector<std::string> CheckConvergence(SimulatedFabric& fabric,
                                          const std::vector<LinkIndex>& links);

// Greedy ddmin-style schedule reduction: repeatedly deletes action chunks while
// `still_fails` keeps returning true, halving the chunk size until single
// actions remain or `max_probes` re-executions are spent. The result is a
// subsequence of `failing` that still fails.
ChaosSchedule MinimizeSchedule(const ChaosSchedule& failing,
                               const std::function<bool(const ChaosSchedule&)>& still_fails,
                               uint64_t max_probes = 200);

}  // namespace chaos
}  // namespace dumbnet

#endif  // DUMBNET_SRC_CHAOS_CHAOS_H_
