// Audit macros: executable invariant checks sprinkled through hot control-plane
// code (switch forwarding, tag compilation, cache installs). Two strengths:
//
//   DUMBNET_ASSERT(cond, msg)  hard invariant — a violation means the process
//                              state is corrupt; aborts when abort-on-failure is
//                              set (the default in audited test runs can keep it
//                              off so deliberately corrupted fixtures survive).
//   DUMBNET_AUDIT(cond, msg)   soft invariant — recorded and logged, execution
//                              continues (the fabric drops the packet anyway).
//
// Both are compiled into every build: a passing check costs its condition and
// one branch; only a violation reaches the out-of-line recorder.
//
// Failures are counted in a global AuditLog so tests can assert "no invariant
// tripped during this run" or "this corruption was caught". Each (file, line)
// site logs its first failure with a flight-recorder dump, then only a running
// count at powers of ten; every failure is still counted.
#ifndef DUMBNET_SRC_ANALYSIS_AUDIT_H_
#define DUMBNET_SRC_ANALYSIS_AUDIT_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>

namespace dumbnet {
namespace audit {

// Protocol budget: a DumbNet header is one byte per hop plus the ø terminator.
// Sixteen bytes bounds any sane data-center diameter (fat-tree k=64 needs 5) and
// keeps the header far below the MPLS-stack budget the Arista variant rides in.
constexpr size_t kMaxTagStackDepth = 16;

struct AuditCounters {
  // Relaxed atomics: audit points fire from every wire-node thread; the values
  // are statistics, not synchronization.
  std::atomic<uint64_t> failures{0};  // violations recorded
};

// Global audit state, shared across all threads running protocol objects.
const AuditCounters& Counters();
// Also resets the per-site counts, so each site logs its next failure in full.
void ResetCounters();

// Most recent failure message, for test diagnostics. Empty if none.
const std::string& LastFailure();

// When set, a DUMBNET_ASSERT failure aborts the process instead of recording.
void SetAbortOnFailure(bool abort_on_failure);

namespace internal {
void RecordFailure(bool hard, const char* file, int line, const std::string& message);
}  // namespace internal

}  // namespace audit
}  // namespace dumbnet

#define DUMBNET_AUDIT_IMPL(hard, cond, msg)                                        \
  do {                                                                             \
    if (!(cond)) {                                                                 \
      ::dumbnet::audit::internal::RecordFailure(hard, __FILE__, __LINE__,          \
                                                std::string(#cond) + ": " + (msg)); \
    }                                                                              \
  } while (0)

#define DUMBNET_ASSERT(cond, msg) DUMBNET_AUDIT_IMPL(true, cond, msg)
#define DUMBNET_AUDIT(cond, msg) DUMBNET_AUDIT_IMPL(false, cond, msg)

#endif  // DUMBNET_SRC_ANALYSIS_AUDIT_H_
