// Discrete-event simulation engine: a virtual clock plus a hierarchical timer
// wheel of callbacks. Single-threaded; events with equal timestamps fire in
// scheduling order so runs are deterministic bit-for-bit.
//
// Internals (see DESIGN.md "Performance architecture"): events live in a pooled
// slot array (EventFn gives closures ≤ ~48 bytes in-place storage, so the steady
// state allocates nothing per event). Slots are threaded through an 11-level
// timer wheel of 64 buckets per level (64^11 ticks covers every TimeNs), with a
// per-level occupancy bitmap so finding the next event skips empty time in O(1)
// per level instead of scanning. Cancellation is O(1): handles carry a slot
// generation, Cancel stamps the slot and the wheel reaps it when its time comes —
// no unbounded side list, no re-sorting.
#ifndef DUMBNET_SRC_SIM_SIMULATOR_H_
#define DUMBNET_SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <unordered_set>
#include <vector>

#include "src/sim/event_fn.h"
#include "src/sim/footprint.h"
#include "src/sim/time.h"

namespace dumbnet {

// Handle that lets a scheduled event be cancelled (e.g. a retransmit timer that the
// ack beat to the punch). Cancel is O(1): the pooled slot is stamped cancelled and
// reclaimed when the wheel reaches it. Handles are generation-checked, so a handle
// to an event that already ran (or whose slot was reused) is a safe no-op.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return slot_ != UINT32_MAX; }

 private:
  friend class Simulator;
  EventHandle(uint32_t slot, uint32_t gen) : slot_(slot), gen_(gen) {}
  uint32_t slot_ = UINT32_MAX;
  uint32_t gen_ = 0;
};

// Queue-side memory accounting, exposed so tests can assert that cancel-heavy
// workloads stay bounded (the former lazily-sorted cancellation list grew without
// limit when cancels raced completions).
struct SimulatorMemStats {
  size_t pool_slots = 0;     // slot high-water mark (allocated once, then reused)
  size_t free_slots = 0;     // currently idle slots
  size_t queued_events = 0;  // scheduled, incl. cancelled-but-unreaped
};

class Simulator {
 public:
  Simulator();
  // Unregisters this simulator's log clock if it is the active one.
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimeNs Now() const { return now_; }

  // Schedules `fn` to run at absolute virtual time `at` (>= Now()).
  EventHandle ScheduleAt(TimeNs at, EventFn fn);

  // Schedules `fn` to run `delay` ns from now.
  EventHandle ScheduleAfter(TimeNs delay, EventFn fn);

  // Files `fn` at `at` under `seq`, a number burned earlier with AllocSeq.
  // For components that keep burned events outside the wheel and file each
  // one only when it is the next they must run (the network's per-direction
  // in-flight FIFO): the event runs at exactly the (at, seq) position a
  // ScheduleAt at burn time would have given it. Preconditions: seq < the next
  // seq to be allocated, and if `at`'s batch is already formed (the executing
  // one, or one an early-stopped RunUntil or PeekNextTime drained), seq is
  // above every seq in it — as a seq burned just now always is.
  EventHandle ScheduleAtSeq(TimeNs at, uint64_t seq, EventFn fn);

  // Allocation-free fast paths (DN_HOT_SCOPE) use these to fence the one case
  // in which scheduling allocates: no idle slot and the pool at capacity.
  // ReserveSlot grows the pool geometrically so the next schedule cannot.
  bool SlotReady() const { return !free_.empty() || pool_.size() < pool_.capacity(); }
  void ReserveSlot();

  // Cancels a pending event; no-op if it already ran or was cancelled. O(1).
  void Cancel(EventHandle handle);

  // Runs events until the queue is empty. Returns the number of events executed.
  uint64_t Run();

  // Runs events with timestamp <= deadline; the clock ends at exactly `deadline`
  // (even if the queue drains early), so periodic samplers see a full window.
  uint64_t RunUntil(TimeNs deadline);

  // Executes at most `max_events` events.
  uint64_t RunSteps(uint64_t max_events);

  // Audited mode: `hook` runs after every `every_events` executed events (and the
  // hook may inspect any simulation state — the InvariantAuditor in src/analysis
  // attaches itself this way). Pass an empty hook to detach. The hook must not
  // schedule or cancel events.
  void SetAuditHook(std::function<void()> hook, uint64_t every_events = 256);

  // Trace mode: `hook(at, seq)` fires after every executed event, where `seq` is
  // the event's global scheduling sequence number. Two runs of the same seeded
  // workload must produce identical traces (the golden-trace determinism tests
  // compare them). Pass an empty hook to detach.
  void SetTraceHook(std::function<void(TimeNs at, uint64_t seq)> hook);

  // Race-detection mode (footprint::SetEnabled(true) opts a run in): within each
  // same-timestamp batch of two or more events, the simulator collects the
  // footprints the handlers declare (DN_FP_* in src/sim/footprint.h) and, at the
  // batch boundary, reports every pair of tie-break-ordered events with
  // conflicting footprints. With no hook installed, hazards are DN_WARN-logged
  // (deduplicated by handler pair) and the first one dumps flight-recorder
  // context. The hook runs between batches and must not schedule or cancel.
  using HazardHook = std::function<void(const footprint::BatchHazard&)>;
  void SetHazardHook(HazardHook hook);
  uint64_t hazards_detected() const { return hazards_; }

  // Schedule control (the dumbnet-explore DPOR driver): whenever a batch of two
  // or more same-timestamp events is formed, `permuter(batch_index, at, order)`
  // may reorder `order` — initially the identity over canonical positions 0..n-1
  // (ascending scheduling seq, the order an untouched run executes). The batch
  // then runs in the permuted order. A non-permutation is ignored with a
  // warning. Works whether or not footprint tracking is enabled, so minimized
  // counterexample schedules replay without it.
  using BatchPermuter =
      std::function<void(uint64_t batch_index, TimeNs at, std::vector<uint32_t>& order)>;
  void SetBatchPermuter(BatchPermuter permuter);
  // Batches of size >= 2 formed so far; the next such batch gets this index.
  uint64_t batches_formed() const { return batch_index_; }

  // Peeks the timestamp of the earliest queued event without executing it.
  // Returns false when the queue is empty. The reported time may belong to a
  // cancelled-but-unreaped event, so it is a lower bound on the next *executed*
  // event — enough for a wire node to size its reactor wait until the next timer
  // (src/wire/node.cc).
  // Advances the wheel's due batch as a side effect (an earlier insert afterwards
  // takes the documented RewindAndRefile path).
  bool PeekNextTime(TimeNs* at);

  // Consumes and returns the next scheduling sequence number without filing an
  // event. For components that replace a would-be event with lazily evaluated
  // state (the network's egress-queue drain): burning the seq keeps every
  // later event's number — and therefore every same-timestamp tie-break —
  // identical to a build that schedules the event for real.
  uint64_t AllocSeq() { return next_seq_++; }

  // Sequence number of the event currently executing, or UINT64_MAX between
  // events. Comparing a virtual event's burned seq (AllocSeq) against this
  // decides whether it would already have run: strictly earlier time, or same
  // time and smaller seq. Outside event execution everything at t <= Now()
  // counts as run, matching the Run()/RunUntil() batch boundary.
  uint64_t CurrentSeq() const { return current_seq_; }

  bool Empty() const { return queued_ == 0; }
  uint64_t executed_events() const { return executed_; }
  SimulatorMemStats mem_stats() const;

 private:
  static constexpr uint32_t kNil = UINT32_MAX;
  static constexpr int kLevelBits = 6;
  static constexpr uint32_t kSlotsPerLevel = 64;
  // 64^11 = 2^66 ticks: every representable TimeNs files into some level, so there
  // is no overflow list.
  static constexpr int kLevels = 11;

  struct Slot {
    TimeNs at = 0;
    uint64_t seq = 0;       // tie-break: FIFO among same-time events
    uint32_t gen = 0;       // bumped on reclaim; stale handles mismatch
    uint32_t next = kNil;   // intrusive bucket list
    bool cancelled = false;
    EventFn fn;
  };

  struct Level {
    uint64_t occupied = 0;  // bit b set <=> bucket b non-empty
    std::array<uint32_t, kSlotsPerLevel> head;
    std::array<uint32_t, kSlotsPerLevel> tail;
  };

  uint32_t AllocSlot();
  void ReclaimSlot(uint32_t idx);
  EventHandle Insert(TimeNs at, uint64_t seq, EventFn&& fn);
  // Threads `idx` into the wheel relative to wheel_time_.
  void FileSlot(uint32_t idx);
  // Rewinds the wheel to `new_wheel_time` and re-files every queued event. Needed
  // when an insert lands below wheel_time_ — possible only after RunUntil/RunSteps
  // stopped with a drained-but-unexecuted future batch. O(queued), amortised over
  // the run boundary that caused it; allocates nothing.
  void RewindAndRefile(TimeNs new_wheel_time);
  // Ensures due_ holds the next same-timestamp batch (sorted by seq). Cascades
  // higher-level buckets down as the wheel advances. False when nothing is queued.
  bool RefillDue();
  // Pops and runs the next due event if it is not cancelled. Returns true if an
  // event actually executed. Precondition: RefillDue() returned true.
  bool Step();
  // Called once per freshly refilled batch: assigns the batch index, applies the
  // permuter, and arms footprint collection for batches of size >= 2.
  void PrepareBatch();
  // Conflict-checks the completed batch's collected footprints (no-op when none
  // were collected) and routes hazards to the hook or the default report.
  void FlushBatchFootprints();
  void DefaultHazardReport(const footprint::BatchHazard& hazard);

  std::vector<Slot> pool_;
  std::vector<uint32_t> free_;
  std::array<Level, kLevels> levels_;
  std::vector<uint32_t> due_;  // slot indices, one timestamp, ascending seq
  size_t due_pos_ = 0;
  // Lower bound on every queued event's timestamp; advances only inside
  // RefillDue. Inserts are filed relative to this.
  TimeNs wheel_time_ = 0;

  std::function<void()> audit_hook_;
  uint64_t audit_every_ = 0;
  std::function<void(TimeNs, uint64_t)> trace_hook_;
  TimeNs now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t current_seq_ = UINT64_MAX;
  uint64_t executed_ = 0;
  uint64_t queued_ = 0;

  // Race detection / schedule control. All of it idles unless a permuter is
  // installed or footprint tracking is runtime-enabled; singleton batches skip
  // everything but one size check.
  struct BatchEventFp {
    uint32_t pos = 0;  // canonical position within the batch
    uint64_t seq = 0;
    footprint::EventFootprint fp;
  };
  HazardHook hazard_hook_;
  BatchPermuter permuter_;
  std::vector<uint32_t> due_canon_;   // canonical position of due_[i]
  std::vector<uint32_t> batch_scratch_;
  std::vector<BatchEventFp> batch_fps_;
  bool batch_tracking_ = false;  // current batch collects footprints
  uint64_t batch_index_ = 0;     // size>=2 batches formed so far
  uint64_t batch_cur_index_ = 0;
  uint32_t batch_size_ = 0;
  TimeNs batch_at_ = 0;
  uint64_t hazards_ = 0;
  std::unordered_set<uint64_t> hazard_sigs_;  // default-report dedup
};

}  // namespace dumbnet

#endif  // DUMBNET_SRC_SIM_SIMULATOR_H_
