// Flight recorder: a fixed-size ring buffer of structured trace events.
//
// Every layer of the stack (simulator core, switches, host agents, controller,
// transport) records cheap fixed-width events as it runs; the ring keeps the
// most recent `capacity` of them. Two consumers:
//   - On an audit/assert failure, the last N events are dumped to stderr so the
//     moments leading up to the violation are visible ("what was the fabric
//     doing right before this fired?").
//   - A run can save the ring to a text dump ("dumbnet-flight-recorder v1"),
//     which tools/dumbnet-trace converts to Chrome trace_event JSON for
//     chrome://tracing, or summarizes as a text top-N report.
//
// Events carry the *simulated* timestamp (TimeNs) — callers pass now_ns from
// the active Simulator; sites without a simulator handy fall back to the
// registered log clock (0 when none). `name` is an optional string literal
// (static storage duration) attached by DN_LOG_KV capture; the recorder keeps
// the pointer, never a copy.
//
// Recording is mutex-guarded (TSan-clean from pool workers) and gated on the
// same compile/runtime switches as the metrics registry, so a disabled build
// pays nothing and a runtime-disabled run pays one predicted branch per site.
#ifndef DUMBNET_SRC_TELEMETRY_FLIGHT_RECORDER_H_
#define DUMBNET_SRC_TELEMETRY_FLIGHT_RECORDER_H_

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <mutex>
#include <string>
#include <vector>

#include "src/telemetry/telemetry.h"

namespace dumbnet {
namespace telemetry {

// Which layer recorded the event. Values are stable across runs (they appear
// in dumps); append only.
enum class Component : uint8_t {
  kSimulator = 0,
  kNetwork = 1,
  kSwitch = 2,
  kHost = 3,
  kController = 4,
  kTransport = 5,
  kAudit = 6,
  kLog = 7,  // DN_LOG_KV capture
};
constexpr size_t kComponentCount = 8;
const char* ComponentName(Component c);

// What happened. Shared vocabulary across components; append only.
enum class EventKind : uint8_t {
  kProgress = 0,      // periodic simulator heartbeat (id = events executed)
  kSend = 1,          // packet handed to the network
  kReceive = 2,       // packet delivered
  kForward = 3,       // switch forwarded a tagged packet (arg = egress port)
  kDrop = 4,          // packet dropped (dead link, bad tag, filter)
  kFailover = 5,      // host switched to a backup path (arg = path index)
  kRepair = 6,        // host repaired its path table after a link change
  kRetransmit = 7,    // transport retransmitted a segment (id = flow)
  kTimeout = 8,       // transport retransmission timer fired
  kDiscovery = 9,     // controller discovery probe activity
  kPathServe = 10,    // controller served a path-graph / route request
  kPatch = 11,        // controller pushed a repair patch
  kGossip = 12,       // host-to-host failure gossip hop
  kDivergence = 13,   // provenance mismatch: path taken != path promised
  kAuditFailure = 14, // invariant audit / assert failure
  kLogEvent = 15,     // structured DN_LOG_KV event (name = event literal)
};
const char* EventKindName(EventKind k);

// One fixed-width trace record. 32 bytes; copied into the ring by value.
struct TraceEvent {
  int64_t ts_ns = 0;          // simulated time
  uint64_t id = 0;            // packet/flow/switch id (component-defined)
  uint64_t arg = 0;           // secondary payload (port, count, path index)
  const char* name = nullptr; // optional string literal; nullptr for most events
  Component component = Component::kSimulator;
  EventKind kind = EventKind::kProgress;
};

class FlightRecorder {
 public:
  // Process-wide recorder used by DN_TRACE_EVENT. Never destroyed.
  static FlightRecorder& Global();

  // Ring size in events. Resizing clears the ring. Default 64 Ki events.
  void SetCapacity(size_t capacity);
  size_t capacity() const;

  void Record(const TraceEvent& ev);

  // Oldest-to-newest copy of the ring.
  std::vector<TraceEvent> Snapshot() const;
  // The most recent `n` events, oldest first.
  std::vector<TraceEvent> LastN(size_t n) const;

  size_t size() const;
  // Total events ever recorded (>= size(); the excess wrapped away).
  uint64_t total_recorded() const;
  void Clear();

  // Writes the "dumbnet-flight-recorder v1" text dump. Returns false on I/O
  // failure.
  bool SaveTo(const std::string& path) const;

  // Dumps the last `n` events to stderr, newest last, under a banner naming
  // `why`. Called from the audit layer on assert/invariant failure; safe to
  // call with an empty ring.
  void DumpOnFailure(const char* why, size_t n = 64) const;

  // Installs a DN_LOG_KV sink that records kLogEvent entries into this ring.
  // Idempotent; replaces any previous sink.
  static void InstallLogCapture();

 private:
  FlightRecorder();

  mutable std::mutex mu_;
  std::vector<TraceEvent> ring_;
  size_t capacity_;
  size_t next_ = 0;       // ring_[next_] is the oldest once wrapped
  bool wrapped_ = false;
  uint64_t total_ = 0;
};

// Writes events oldest-first as "dumbnet-flight-recorder v1" text, one event
// per line: seq ts_ns component kind id arg [name].
void WriteTextDump(std::ostream& os, const std::vector<TraceEvent>& events);

// A dump re-loaded from text. Owns the name strings (TraceEvent::name points
// into `names`, which never reallocates).
struct TraceDump {
  std::vector<TraceEvent> events;
  std::deque<std::string> names;  // stable backing for event names

  // Parses a "dumbnet-flight-recorder v1" dump; returns false (with *error
  // set) on malformed input.
  static bool Load(std::istream& is, TraceDump* out, std::string* error);
};

// Chrome trace_event JSON: one instant event per record, one tid lane per
// component, with thread_name metadata so chrome://tracing labels the lanes.
void WriteChromeTrace(std::ostream& os, const std::vector<TraceEvent>& events);

// Text report: per-component and per-kind event counts plus the top-N busiest
// (component, kind) pairs, sorted by count.
void PrintTopReport(std::ostream& os, const std::vector<TraceEvent>& events, size_t top_n);

}  // namespace telemetry
}  // namespace dumbnet

// Record one trace event. `component` and `kind` are bare enumerator names
// (e.g. kSwitch, kForward); `ts` is the simulated time in ns.
#define DN_TRACE_EVENT(comp_, kind_, ts_, id_, arg_)                         \
  do {                                                                       \
    if (::dumbnet::telemetry::Enabled()) {                                   \
      ::dumbnet::telemetry::TraceEvent _dn_ev;                               \
      _dn_ev.ts_ns = (ts_);                                                  \
      _dn_ev.id = (id_);                                                     \
      _dn_ev.arg = (arg_);                                                   \
      _dn_ev.component = ::dumbnet::telemetry::Component::comp_;             \
      _dn_ev.kind = ::dumbnet::telemetry::EventKind::kind_;                  \
      ::dumbnet::telemetry::FlightRecorder::Global().Record(_dn_ev);         \
    }                                                                        \
  } while (0)

#endif  // DUMBNET_SRC_TELEMETRY_FLIGHT_RECORDER_H_
