#include "src/analysis/audit.h"

#include <cstdlib>
#include <mutex>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace dumbnet {
namespace audit {
namespace {

AuditCounters g_counters;
std::mutex g_failure_mu;  // guards g_last_failure (failure path only)
std::string g_last_failure;
bool g_abort_on_failure = false;

}  // namespace

const AuditCounters& Counters() { return g_counters; }

void ResetCounters() {
  g_counters.failures.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_failure_mu);
  g_last_failure.clear();
}

// Test diagnostics; read after worker threads are joined, so no lock on read.
const std::string& LastFailure() { return g_last_failure; }

void SetAbortOnFailure(bool abort_on_failure) { g_abort_on_failure = abort_on_failure; }

namespace internal {

void RecordFailure(bool hard, const char* file, int line, const std::string& message) {
  g_counters.failures.fetch_add(1, std::memory_order_relaxed);
  {
    std::lock_guard<std::mutex> lock(g_failure_mu);
    g_last_failure = message;
  }
  DN_ERROR << (hard ? "invariant violated" : "audit failed") << " at " << file << ":"
           << line << " — " << message;
  DN_COUNTER_INC("audit.failures");
  // The moments leading up to a violation are usually the diagnosis: dump the
  // flight recorder's tail alongside the failure itself.
  if (telemetry::Enabled()) {
    int64_t now = 0;
    (void)CurrentLogTime(&now);
    DN_TRACE_EVENT(kAudit, kAuditFailure, now, static_cast<uint64_t>(line), hard ? 1 : 0);
    telemetry::FlightRecorder::Global().DumpOnFailure(
        hard ? "invariant violated" : "audit failed");
  }
  if (hard && g_abort_on_failure) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace audit
}  // namespace dumbnet
