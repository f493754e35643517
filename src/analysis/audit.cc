#include "src/analysis/audit.h"

#include <cstdlib>
#include <map>
#include <mutex>

#include "src/telemetry/flight_recorder.h"
#include "src/telemetry/telemetry.h"
#include "src/util/logging.h"

namespace dumbnet {
namespace audit {
namespace {

AuditCounters g_counters;
std::mutex g_failure_mu;  // guards g_last_failure and g_site_failures
std::string g_last_failure;
std::map<std::pair<std::string, int>, uint64_t> g_site_failures;
bool g_abort_on_failure = false;

}  // namespace

const AuditCounters& Counters() { return g_counters; }

void ResetCounters() {
  g_counters.failures.store(0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(g_failure_mu);
  g_last_failure.clear();
  g_site_failures.clear();
}

// Test diagnostics; read after worker threads are joined, so no lock on read.
const std::string& LastFailure() { return g_last_failure; }

void SetAbortOnFailure(bool abort_on_failure) { g_abort_on_failure = abort_on_failure; }

namespace internal {

void RecordFailure(bool hard, const char* file, int line, const std::string& message) {
  g_counters.failures.fetch_add(1, std::memory_order_relaxed);
  uint64_t at_site = 0;
  {
    std::lock_guard<std::mutex> lock(g_failure_mu);
    g_last_failure = message;
    at_site = ++g_site_failures[{file, line}];
  }
  // A site that fails once usually fails in bulk: its first failure is logged
  // in full, then only a running count at powers of ten.
  uint64_t power = 1;
  while (power < at_site) {
    power *= 10;
  }
  const char* what = hard ? "invariant violated" : "audit failed";
  if (at_site == 1) {
    DN_ERROR << what << " at " << file << ":" << line << " — " << message;
  } else if (power == at_site) {
    DN_ERROR << what << " at " << file << ":" << line << " — " << at_site
             << " failures at this site so far";
  }
  DN_COUNTER_INC("audit.failures");
  // The moments leading up to a violation are usually the diagnosis: dump the
  // flight recorder's tail alongside the site's first failure.
  if (telemetry::Enabled()) {
    int64_t now = 0;
    (void)CurrentLogTime(&now);
    DN_TRACE_EVENT(kAudit, kAuditFailure, now, static_cast<uint64_t>(line), hard ? 1 : 0);
    if (at_site == 1) {
      telemetry::FlightRecorder::Global().DumpOnFailure(what);
    }
  }
  if (hard && g_abort_on_failure) {
    std::abort();
  }
}

}  // namespace internal
}  // namespace audit
}  // namespace dumbnet
