#include "src/sim/footprint.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>

namespace dumbnet {
namespace footprint {

const char* FpSpaceName(FpSpace space) {
  switch (space) {
    case FpSpace::kHost:
      return "host";
    case FpSpace::kSwitch:
      return "switch";
    case FpSpace::kLink:
      return "link";
    case FpSpace::kLinkQueue:
      return "link-queue";
    case FpSpace::kPathTable:
      return "path-table";
    case FpSpace::kTopoCache:
      return "topo-cache";
    case FpSpace::kCtrlDb:
      return "ctrl-db";
    case FpSpace::kCtrlLog:
      return "ctrl-log";
    case FpSpace::kCtrlCpu:
      return "ctrl-cpu";
    case FpSpace::kDiscovery:
      return "discovery";
    case FpSpace::kFlow:
      return "flow";
    case FpSpace::kScenario:
      return "scenario";
  }
  return "?";
}

const char* FpAccessName(FpAccess access) {
  switch (access) {
    case FpAccess::kRead:
      return "R";
    case FpAccess::kWrite:
      return "W";
    case FpAccess::kCommute:
      return "C";
  }
  return "?";
}

namespace internal {
std::atomic<bool> g_enabled{false};
thread_local bool g_collecting = false;
}  // namespace internal

void SetEnabled(bool on) { internal::g_enabled.store(on, std::memory_order_relaxed); }

Collector& Collector::Global() {
  thread_local Collector collector;
  return collector;
}

void Collector::BeginEvent() {
  cur_.label = nullptr;
  cur_.entity = 0;
  cur_.accesses.clear();
  internal::g_collecting = true;
}

EventFootprint Collector::TakeEvent() {
  internal::g_collecting = false;
  EventFootprint out = std::move(cur_);
  cur_ = EventFootprint{};
  return out;
}

bool SameReason(const char* a, const char* b) {
  if (a == b) {
    return true;
  }
  if (a == nullptr || b == nullptr) {
    return false;
  }
  return std::strcmp(a, b) == 0;
}

FpEffect MergeEffects(const FpEffect& a, const FpEffect& b) {
  if (a.access == FpAccess::kWrite || b.access == FpAccess::kWrite) {
    return FpEffect{FpAccess::kWrite, nullptr};
  }
  if (a.access == FpAccess::kCommute && b.access == FpAccess::kCommute) {
    if (SameReason(a.reason, b.reason)) {
      return a;
    }
    // Two different commute claims in one event: no single family covers the
    // combined update, so treat it as an order-sensitive write.
    return FpEffect{FpAccess::kWrite, nullptr};
  }
  if (a.access == FpAccess::kCommute) {
    return a;
  }
  if (b.access == FpAccess::kCommute) {
    return b;
  }
  return FpEffect{FpAccess::kRead, nullptr};
}

bool EffectsConflict(const FpEffect& a, const FpEffect& b) {
  if (a.access == FpAccess::kWrite || b.access == FpAccess::kWrite) {
    return true;
  }
  if (a.access == FpAccess::kCommute && b.access == FpAccess::kCommute) {
    // Same commuting family: the annotated-benign case. Different families do
    // not commute with each other (max-merge vs set-union, say).
    return !SameReason(a.reason, b.reason);
  }
  // Read-vs-Read is trivially clean. A plain Read against a commuting write
  // still conflicts: the commute claim covers other writers, not observers.
  return a.access != b.access;
}

namespace {

// "C" / "C(reason)" / "W" / "R" — the access letter with the commute family.
void AppendAccess(FpAccess access, const char* reason, std::string& out) {
  out += FpAccessName(access);
  if (access == FpAccess::kCommute && reason != nullptr) {
    out += '(';
    out += reason;
    out += ')';
  }
}

}  // namespace

void FormatHazard(const BatchHazard& hazard, std::string& out) {
  char buf[192];
  std::snprintf(buf, sizeof(buf),
                "t=%" PRId64 " batch=%" PRIu64 " (size %u) pos %u vs %u: ",
                static_cast<int64_t>(hazard.at), hazard.batch_index,
                hazard.batch_size, hazard.pos_a, hazard.pos_b);
  out += buf;
  std::snprintf(buf, sizeof(buf), "%s[0x%" PRIx64 "] ",
                hazard.label_a ? hazard.label_a : "?", hazard.entity_a);
  out += buf;
  AppendAccess(hazard.access_a, hazard.reason_a, out);
  std::snprintf(buf, sizeof(buf), " / %s[0x%" PRIx64 "] ",
                hazard.label_b ? hazard.label_b : "?", hazard.entity_b);
  out += buf;
  AppendAccess(hazard.access_b, hazard.reason_b, out);
  std::snprintf(buf, sizeof(buf), " on %s/0x%" PRIx64, FpSpaceName(hazard.space),
                hazard.id);
  out += buf;
}

}  // namespace footprint
}  // namespace dumbnet
