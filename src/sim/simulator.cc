#include "src/sim/simulator.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <map>
#include <set>
#include <string>
#include <utility>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace dumbnet {

namespace {

// DN_LOG lines carry simulated time while a simulator is active.
int64_t SimulatorLogClock(const void* ctx) {
  return static_cast<const Simulator*>(ctx)->Now();
}

// Progress heartbeat cadence for the flight recorder; power of two so the
// modulo folds to a mask.
constexpr uint64_t kProgressEvery = 4096;

// Level that can hold time `at` when the wheel stands at `wheel`: the level of the
// highest differing bit. Events share all bits above their level's bucket field
// with the wheel position, which is what makes the per-level "buckets >= current"
// scan in RefillDue exhaustive.
inline int LevelOf(uint64_t at, uint64_t wheel) {
  uint64_t diff = at ^ wheel;
  if (diff == 0) {
    return 0;
  }
  return (63 - std::countl_zero(diff)) / 6;  // kLevelBits
}

}  // namespace

Simulator::Simulator() {
  for (Level& level : levels_) {
    level.head.fill(kNil);
    level.tail.fill(kNil);
  }
  // First simulator on this thread wins: nested/sequential simulators leave an
  // already registered clock alone (the registration is thread-local, so each
  // wire-node thread timestamps its log lines with its own simulator).
  int64_t unused = 0;
  if (!CurrentLogTime(&unused)) {
    SetLogClock(&SimulatorLogClock, this);
  }
}

Simulator::~Simulator() {
  if (LogClockCtx() == this) {
    SetLogClock(nullptr, nullptr);
  }
}

uint32_t Simulator::AllocSlot() {
  if (!free_.empty()) {
    uint32_t idx = free_.back();
    free_.pop_back();
    return idx;
  }
  pool_.emplace_back();
  return static_cast<uint32_t>(pool_.size() - 1);
}

void Simulator::ReclaimSlot(uint32_t idx) {
  Slot& slot = pool_[idx];
  slot.fn.Reset();
  slot.cancelled = false;
  ++slot.gen;  // outstanding handles to this slot become stale
  free_.push_back(idx);
}

void Simulator::FileSlot(uint32_t idx) {
  Slot& slot = pool_[idx];
  const uint64_t at = static_cast<uint64_t>(slot.at);
  const int level_idx = LevelOf(at, static_cast<uint64_t>(wheel_time_));
  const uint32_t bucket =
      static_cast<uint32_t>(at >> (kLevelBits * level_idx)) & (kSlotsPerLevel - 1);
  Level& level = levels_[static_cast<size_t>(level_idx)];
  slot.next = kNil;
  if ((level.occupied & (1ULL << bucket)) != 0) {
    pool_[level.tail[bucket]].next = idx;
  } else {
    level.head[bucket] = idx;
    level.occupied |= 1ULL << bucket;
  }
  level.tail[bucket] = idx;
}

void Simulator::RewindAndRefile(TimeNs new_wheel_time) {
  // Chains every queued slot through its intrusive `next` link, so a rewind
  // needs no scratch memory (a host delivery on the wire runtime can land
  // here from inside a hot scope). Bucket order is irrelevant: RefillDue
  // sorts each batch by seq.
  uint32_t chain = kNil;
  for (Level& level : levels_) {
    uint64_t occupied = level.occupied;
    while (occupied != 0) {
      const uint32_t bucket = static_cast<uint32_t>(std::countr_zero(occupied));
      occupied &= occupied - 1;
      pool_[level.tail[bucket]].next = chain;
      chain = level.head[bucket];
      level.head[bucket] = kNil;
      level.tail[bucket] = kNil;
    }
    level.occupied = 0;
  }
  for (size_t i = due_pos_; i < due_.size(); ++i) {
    pool_[due_[i]].next = chain;
    chain = due_[i];
  }
  due_.clear();
  due_pos_ = 0;
  wheel_time_ = new_wheel_time;
  while (chain != kNil) {
    const uint32_t idx = chain;
    chain = pool_[idx].next;
    FileSlot(idx);
  }
}

EventHandle Simulator::ScheduleAt(TimeNs at, EventFn fn) {
  return Insert(at, next_seq_++, std::move(fn));
}

EventHandle Simulator::ScheduleAtSeq(TimeNs at, uint64_t seq, EventFn fn) {
  assert(seq < next_seq_ && "ScheduleAtSeq takes a seq burned by AllocSeq");
  return Insert(at, seq, std::move(fn));
}

void Simulator::ReserveSlot() {
  if (!SlotReady()) {
    pool_.reserve(std::max<size_t>(64, 2 * pool_.capacity()));
  }
}

EventHandle Simulator::Insert(TimeNs at, uint64_t seq, EventFn&& fn) {
  if (at < now_) {
    at = now_;  // a timestamp in the past fires immediately; time never rewinds
  }
  if (at < wheel_time_) {
    // The wheel ran ahead of the clock (an early-stopped RunUntil/RunSteps left a
    // future batch drained); rewind so this earlier event is reachable.
    RewindAndRefile(at);
  }
  uint32_t idx = AllocSlot();
  Slot& slot = pool_[idx];
  slot.at = at;
  slot.seq = seq;
  slot.fn = std::move(fn);
  FileSlot(idx);
  ++queued_;
  return EventHandle(idx, slot.gen);
}

EventHandle Simulator::ScheduleAfter(TimeNs delay, EventFn fn) {
  return ScheduleAt(now_ + delay, std::move(fn));
}

void Simulator::Cancel(EventHandle handle) {
  if (!handle.valid() || handle.slot_ >= pool_.size()) {
    return;
  }
  Slot& slot = pool_[handle.slot_];
  if (slot.gen != handle.gen_ || slot.cancelled) {
    return;  // already ran, already cancelled, or the slot was reused
  }
  slot.cancelled = true;
  slot.fn.Reset();  // release captured resources now, not at expiry
}

bool Simulator::RefillDue() {
  if (due_pos_ < due_.size()) {
    return true;
  }
  if (!batch_fps_.empty()) {
    FlushBatchFootprints();
  }
  batch_tracking_ = false;
  due_.clear();
  due_pos_ = 0;
  if (queued_ == 0) {
    return false;
  }
  for (;;) {
    const uint64_t wheel = static_cast<uint64_t>(wheel_time_);
    int level_idx = -1;
    uint32_t bucket = 0;
    for (int k = 0; k < kLevels; ++k) {
      const uint32_t cur =
          static_cast<uint32_t>(wheel >> (kLevelBits * k)) & (kSlotsPerLevel - 1);
      const uint64_t pending = levels_[static_cast<size_t>(k)].occupied & (~0ULL << cur);
      if (pending != 0) {
        level_idx = k;
        bucket = static_cast<uint32_t>(std::countr_zero(pending));
        break;
      }
    }
    assert(level_idx >= 0 && "queued_ > 0 but the wheel is empty");
    if (level_idx < 0) {
      return false;
    }
    Level& level = levels_[static_cast<size_t>(level_idx)];
    uint32_t head = level.head[bucket];
    level.occupied &= ~(1ULL << bucket);
    level.head[bucket] = kNil;
    level.tail[bucket] = kNil;

    if (level_idx == 0) {
      // A level-0 bucket holds exactly one timestamp: the wheel position with its
      // low bits replaced by the bucket index.
      wheel_time_ = static_cast<TimeNs>((wheel & ~static_cast<uint64_t>(kSlotsPerLevel - 1)) |
                                        bucket);
      for (uint32_t i = head; i != kNil; i = pool_[i].next) {
        assert(pool_[i].at == wheel_time_);
        due_.push_back(i);
      }
      // FIFO among same-time events, regardless of how cascades interleaved them.
      std::sort(due_.begin(), due_.end(),
                [this](uint32_t a, uint32_t b) { return pool_[a].seq < pool_[b].seq; });
      if (due_.size() > 1) {
        PrepareBatch();
      }
      return true;
    }

    // Cascade: advance the wheel to the bucket's start and re-file its events one
    // level (or more) down. Each event cascades at most kLevels times ever, so
    // this is amortised O(1) per event.
    const int shift = kLevelBits * (level_idx + 1);
    const uint64_t prefix_mask = shift >= 64 ? 0 : ~0ULL << shift;
    wheel_time_ = static_cast<TimeNs>(
        (wheel & prefix_mask) |
        (static_cast<uint64_t>(bucket) << (kLevelBits * level_idx)));
    for (uint32_t i = head; i != kNil;) {
      uint32_t next = pool_[i].next;
      FileSlot(i);
      i = next;
    }
  }
}

void Simulator::PrepareBatch() {
  const size_t n = due_.size();
  // Every size>=2 batch consumes an index, whether or not this run tracks or
  // permutes, so batch indices agree between detection, replay, and plain runs.
  const uint64_t index = batch_index_++;
  const bool track = footprint::Enabled();
  if (!track && !permuter_) {
    return;
  }
  due_canon_.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    due_canon_[i] = i;
  }
  if (permuter_) {
    permuter_(index, wheel_time_, due_canon_);
    bool valid = due_canon_.size() == n;
    if (valid) {
      batch_scratch_.assign(n, 0);
      for (uint32_t p : due_canon_) {
        if (p >= n || batch_scratch_[p] != 0) {
          valid = false;
          break;
        }
        batch_scratch_[p] = 1;
      }
    }
    if (!valid) {
      DN_WARN << "batch permuter returned a non-permutation for batch " << index
              << "; keeping canonical order";
      due_canon_.resize(n);
      for (uint32_t i = 0; i < n; ++i) {
        due_canon_[i] = i;
      }
    } else {
      // due_canon_[i] now names which canonical event runs i-th; reorder due_
      // to match.
      batch_scratch_ = due_;
      for (uint32_t i = 0; i < n; ++i) {
        due_[i] = batch_scratch_[due_canon_[i]];
      }
    }
  }
  if (track) {
    batch_tracking_ = true;
    batch_fps_.clear();
    batch_cur_index_ = index;
    batch_size_ = static_cast<uint32_t>(n);
    batch_at_ = wheel_time_;
  }
}

void Simulator::FlushBatchFootprints() {
  // Collapse each event's accesses to one effective access per entity, then
  // group by entity. std::map keys keep hazard emission order deterministic.
  using EntityKey = std::pair<uint8_t, uint64_t>;
  struct Acc {
    uint32_t fp_idx;
    footprint::FpEffect effect;
  };
  std::map<EntityKey, std::vector<Acc>> by_entity;
  for (uint32_t i = 0; i < batch_fps_.size(); ++i) {
    std::map<EntityKey, footprint::FpEffect> effective;
    for (const footprint::FpRecord& r : batch_fps_[i].fp.accesses) {
      const EntityKey key{static_cast<uint8_t>(r.space), r.id};
      const footprint::FpEffect effect{r.access, r.reason};
      auto it = effective.find(key);
      if (it == effective.end()) {
        effective.emplace(key, effect);
      } else {
        it->second = footprint::MergeEffects(it->second, effect);
      }
    }
    for (const auto& [key, effect] : effective) {
      by_entity[key].push_back(Acc{i, effect});
    }
  }
  // Consecutive conflicting accessors per entity are the DPOR generator set:
  // reversing an adjacent conflicting pair reaches every reachable reordering
  // transitively, so there is no need to emit the full quadratic pair set.
  std::set<std::pair<uint32_t, uint32_t>> reported;
  for (const auto& [key, accs] : by_entity) {
    if (accs.size() < 2) {
      continue;
    }
    for (size_t k = 1; k < accs.size(); ++k) {
      const Acc& first = accs[k - 1];
      const Acc& second = accs[k];
      if (!footprint::EffectsConflict(first.effect, second.effect)) {
        continue;
      }
      const BatchEventFp& a = batch_fps_[first.fp_idx];
      const BatchEventFp& b = batch_fps_[second.fp_idx];
      const auto pos_pair = std::minmax(a.pos, b.pos);
      if (!reported.insert(pos_pair).second) {
        continue;  // this event pair already conflicted on another entity
      }
      footprint::BatchHazard hazard;
      hazard.at = batch_at_;
      hazard.batch_index = batch_cur_index_;
      hazard.batch_size = batch_size_;
      hazard.pos_a = pos_pair.first;
      hazard.pos_b = pos_pair.second;
      const bool a_first = a.pos <= b.pos;
      hazard.seq_a = a_first ? a.seq : b.seq;
      hazard.seq_b = a_first ? b.seq : a.seq;
      hazard.label_a = a_first ? a.fp.label : b.fp.label;
      hazard.label_b = a_first ? b.fp.label : a.fp.label;
      hazard.entity_a = a_first ? a.fp.entity : b.fp.entity;
      hazard.entity_b = a_first ? b.fp.entity : a.fp.entity;
      hazard.space = static_cast<footprint::FpSpace>(key.first);
      hazard.id = key.second;
      hazard.access_a = a_first ? first.effect.access : second.effect.access;
      hazard.access_b = a_first ? second.effect.access : first.effect.access;
      hazard.reason_a = a_first ? first.effect.reason : second.effect.reason;
      hazard.reason_b = a_first ? second.effect.reason : first.effect.reason;
      ++hazards_;
      if (hazard_hook_) {
        hazard_hook_(hazard);
      } else {
        DefaultHazardReport(hazard);
      }
    }
  }
  batch_fps_.clear();
}

void Simulator::DefaultHazardReport(const footprint::BatchHazard& hazard) {
  // One report per (handler pair, space): a racing pattern tends to recur once
  // per affected entity and would otherwise flood the log.
  const uint64_t sig = footprint::FpKey(
      reinterpret_cast<uint64_t>(hazard.label_a),  // dn-lint: allow(pointer-key, literal addresses are stable in-run; sig only gates log emission)
      reinterpret_cast<uint64_t>(hazard.label_b), static_cast<uint64_t>(hazard.space));
  if (!hazard_sigs_.insert(sig).second) {
    return;
  }
  std::string line;
  footprint::FormatHazard(hazard, line);
  DN_WARN << "determinism hazard: " << line;
  if (hazard_sigs_.size() == 1) {
    telemetry::FlightRecorder::Global().DumpOnFailure("determinism hazard");
  }
}

void Simulator::SetHazardHook(HazardHook hook) { hazard_hook_ = std::move(hook); }

void Simulator::SetBatchPermuter(BatchPermuter permuter) {
  permuter_ = std::move(permuter);
}

bool Simulator::Step() {
  const uint32_t idx = due_[due_pos_++];
  Slot& slot = pool_[idx];
  --queued_;
  if (slot.cancelled) {
    ReclaimSlot(idx);
    return false;
  }
  assert(slot.at >= now_);
  now_ = slot.at;
  const uint64_t seq = slot.seq;
  EventFn fn = std::move(slot.fn);
  // Reclaim before invoking: a callback cancelling its own (now stale) handle is a
  // no-op, and nested scheduling may reuse the slot immediately.
  ReclaimSlot(idx);
  current_seq_ = seq;
  if (batch_tracking_) {
    footprint::Collector::Global().BeginEvent();
    fn();
    BatchEventFp rec;
    rec.pos = due_canon_[due_pos_ - 1];
    rec.seq = seq;
    rec.fp = footprint::Collector::Global().TakeEvent();
    batch_fps_.push_back(std::move(rec));
  } else {
    fn();
  }
  current_seq_ = UINT64_MAX;
  ++executed_;
  DN_COUNTER_INC("sim.events");
  if (executed_ % kProgressEvery == 0) {
    DN_TRACE_EVENT(kSimulator, kProgress, now_, executed_, queued_);
  }
  if (trace_hook_) {
    trace_hook_(now_, seq);
  }
  if (audit_every_ != 0 && executed_ % audit_every_ == 0 && audit_hook_) {
    audit_hook_();
  }
  return true;
}

void Simulator::SetAuditHook(std::function<void()> hook, uint64_t every_events) {
  audit_hook_ = std::move(hook);
  audit_every_ = audit_hook_ ? every_events : 0;
}

void Simulator::SetTraceHook(std::function<void(TimeNs, uint64_t)> hook) {
  trace_hook_ = std::move(hook);
}

uint64_t Simulator::Run() {
  uint64_t ran = 0;
  while (RefillDue()) {
    if (Step()) {
      ++ran;
    }
  }
  return ran;
}

uint64_t Simulator::RunUntil(TimeNs deadline) {
  uint64_t ran = 0;
  while (RefillDue() && pool_[due_[due_pos_]].at <= deadline) {
    if (Step()) {
      ++ran;
    }
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return ran;
}

bool Simulator::PeekNextTime(TimeNs* at) {
  if (!RefillDue()) {
    return false;
  }
  *at = pool_[due_[due_pos_]].at;
  return true;
}

uint64_t Simulator::RunSteps(uint64_t max_events) {
  uint64_t ran = 0;
  while (ran < max_events && RefillDue()) {
    if (Step()) {
      ++ran;
    }
  }
  return ran;
}

SimulatorMemStats Simulator::mem_stats() const {
  SimulatorMemStats stats;
  stats.pool_slots = pool_.size();
  stats.free_slots = free_.size();
  stats.queued_events = queued_;
  return stats;
}

}  // namespace dumbnet
