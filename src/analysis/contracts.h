// Hot-path contracts: machine-checked purity of the paths the paper's latency
// claims hinge on (PathTable lookup, tag push/forward, the wire reactor loop).
//
// DumbNet moves all intelligence to hosts and the controller, so the host fast
// path must run "as fast as the hardware allows". Nothing in a conventional
// toolchain stops a future change from adding an allocation, a blocking
// syscall, or a lock-order inversion to those paths — this layer makes each a
// checked contract instead of a convention. Three annotation families:
//
//   DN_HOT_SCOPE(name)       — from here to the end of the enclosing block is a
//                              no-alloc region. The runtime interposer counts
//                              (or aborts on) any operator-new reached inside;
//                              dumbnet-lint's hot-alloc rule flags allocation
//                              and container-growth tokens lexically inside.
//   DN_HOT_EXEMPT(reason)    — declares the enclosing sub-block a cold subpath
//                              of a hot scope (cache-miss rebind, error paths).
//                              Both checkers skip it; the reason is mandatory.
//   DN_REACTOR_CONTEXT;      — this block runs on a wire node's epoll thread.
//                              Blocking syscalls here stall every timer and
//                              socket the node owns. dumbnet-lint's
//                              reactor-block rule flags blocking-call tokens;
//                              at runtime the Guarded* transport shims verify
//                              every fd touched here is O_NONBLOCK, and
//                              DN_BLOCKING_POINT(what) flags declared blocking
//                              waits (e.g. future::get) reached on the loop.
//   DN_MUTEX_RANK(m, rank)   — declares `m`'s place in the global lock order
//                              (ranks must be acquired in strictly increasing
//                              order). The runtime tracker flags an inversion
//                              the moment a contracts::LockGuard acquires a
//                              rank at or below one already held; dumbnet-lint's
//                              mutex-rank rule requires the annotation on every
//                              std::mutex member in src/wire + src/ctrl.
//
// One runtime gate, as for telemetry and footprints: SetEnabled(true) opts a
// process in (default OFF — enforcement costs a TLS read per allocation and an
// fcntl per guarded reactor-side syscall, so only gating runs pay it). Benches
// and the CI selftest enable it; violations are counted (contracts.hot_allocs
// etc. after PublishTelemetry) or fatal under SetFailMode(kAbort).
//
// Threading: region state is thread-local, so scopes opened on one thread never
// leak to another; violation counters are process-wide relaxed atomics.
#ifndef DUMBNET_SRC_ANALYSIS_CONTRACTS_H_
#define DUMBNET_SRC_ANALYSIS_CONTRACTS_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>

namespace dumbnet {
namespace contracts {

// -----------------------------------------------------------------------------------
// Global lock-rank table. Every DN_MUTEX_RANK in the tree draws from here so the
// total order is documented in one place. Ranks are acquired strictly
// increasing; a thread holding rank R may only acquire ranks > R.
inline constexpr int kRankWirePingWaiter = 100;  // PingWaiter::mu (app <-> node)
inline constexpr int kRankWireReactorPost = 200; // Reactor::post_mu_ (innermost)

enum class FailMode : uint8_t {
  kCount = 0,  // bump counters, record the violation, keep going (default)
  kAbort,      // write a one-line report to stderr and abort() at the site
};

// One detected contract violation. Everything is a pointer to static storage or
// a plain integer — building this must not allocate (it is created inside the
// operator-new interposer).
struct Violation {
  enum class Kind : uint8_t { kHotAlloc = 0, kRankInversion, kReactorBlock };
  Kind kind = Kind::kHotAlloc;
  const char* scope = nullptr;   // innermost hot scope / blocking point / mutex name
  const char* detail = nullptr;  // static description of what tripped
  uint64_t a = 0;                // hot-alloc: bytes; rank: held rank
  uint64_t b = 0;                // rank: acquiring rank
};

// Violation totals since process start (or the last ResetCounters). perf_core
// diffs these around each bench to attribute allocations per hot scope.
struct CounterSnapshot {
  uint64_t hot_allocs = 0;
  uint64_t rank_inversions = 0;
  uint64_t reactor_blocks = 0;
};

namespace internal {
// Process-wide opt-in bit (relaxed: flipping mid-run only blurs coverage).
extern std::atomic<bool> g_enabled;

// Per-thread region state. Deliberately a trivial, zero-initialized aggregate:
// a non-trivially-destructible thread_local would register a TLS destructor via
// __cxa_thread_atexit, which allocates — inside the allocation interposer that
// would recurse.
struct ThreadState {
  int hot_depth;
  int exempt_depth;
  int reactor_depth;
  bool in_hook;  // contracts bookkeeping is running; suppress re-entry
  const char* scope_names[16];
  struct Held {
    const void* addr;
    int rank;
    const char* name;
  } held[16];
  int held_count;
};
extern thread_local ThreadState g_tls;

void NoteHotAlloc(std::size_t bytes);
}  // namespace internal

inline bool Enabled() { return internal::g_enabled.load(std::memory_order_relaxed); }
void SetEnabled(bool on);

// Called by the global operator-new replacement on every allocation. Cheap when
// disabled or outside a hot scope: one relaxed atomic load + one TLS read.
inline void NoteAlloc(std::size_t bytes) {
  if (!Enabled()) {
    return;
  }
  internal::ThreadState& ts = internal::g_tls;
  if (ts.hot_depth == 0 || ts.exempt_depth > 0 || ts.in_hook) {
    return;
  }
  internal::NoteHotAlloc(bytes);
}

void SetFailMode(FailMode mode);
FailMode GetFailMode();

// Test/observer hook, called (with internal re-entry protection) on every
// violation. The callback must not throw; it may allocate.
using ViolationHook = void (*)(const Violation&);
void SetViolationHook(ViolationHook hook);

CounterSnapshot Counters();
void ResetCounters();

// Copies contract counters into the telemetry registry as contracts.hot_allocs,
// contracts.rank_inversions, contracts.reactor_blocks (replacing any previous
// published value). Explicit because DN_COUNTER_INC's registry lookup allocates
// on first use — it can never run inside the interposer itself.
void PublishTelemetry();

// Human rendering of the most recent violation ("" when none yet); fixed
// storage, filled without allocating. For tests and failure reports.
const char* LastViolationMessage();

// --- Region RAII (used via the DN_* macros below) ----------------------------------

class HotScope {
 public:
  explicit HotScope(const char* name) {
    if (!Enabled()) {
      return;
    }
    internal::ThreadState& ts = internal::g_tls;
    if (ts.hot_depth < static_cast<int>(sizeof(ts.scope_names) /
                                        sizeof(ts.scope_names[0]))) {
      ts.scope_names[ts.hot_depth] = name;
    }
    ++ts.hot_depth;
    entered_ = true;
  }
  ~HotScope() {
    if (entered_) {
      --internal::g_tls.hot_depth;
    }
  }
  HotScope(const HotScope&) = delete;
  HotScope& operator=(const HotScope&) = delete;

 private:
  bool entered_ = false;
};

class HotExempt {
 public:
  explicit HotExempt(const char* /*reason*/) {
    if (!Enabled()) {
      return;
    }
    ++internal::g_tls.exempt_depth;
    entered_ = true;
  }
  ~HotExempt() {
    if (entered_) {
      --internal::g_tls.exempt_depth;
    }
  }
  HotExempt(const HotExempt&) = delete;
  HotExempt& operator=(const HotExempt&) = delete;

 private:
  bool entered_ = false;
};

class ReactorScope {
 public:
  ReactorScope() {
    if (!Enabled()) {
      return;
    }
    ++internal::g_tls.reactor_depth;
    entered_ = true;
  }
  ~ReactorScope() {
    if (entered_) {
      --internal::g_tls.reactor_depth;
    }
  }
  ReactorScope(const ReactorScope&) = delete;
  ReactorScope& operator=(const ReactorScope&) = delete;

 private:
  bool entered_ = false;
};

// Depth accessors for the region-stack unit tests.
int HotDepth();
int ExemptDepth();
int ReactorDepth();
// Name of the innermost open hot scope on this thread, or nullptr.
const char* CurrentHotScope();

// --- Lock-rank tracking ------------------------------------------------------------

// Registry entry creation/removal; DN_MUTEX_RANK plants a registrar member.
void RegisterMutexRank(const void* mutex_addr, int rank, const char* name);
void UnregisterMutexRank(const void* mutex_addr);
// Rank registered for `mutex_addr`, or -1 when unranked.
int LookupMutexRank(const void* mutex_addr);

// Called by the lock wrappers around acquire/release. Acquire is checked
// *before* blocking on the mutex, so an inversion is flagged even when the
// interleaving that would deadlock never happens to run.
void NoteLockAcquire(const void* mutex_addr);
void NoteLockRelease(const void* mutex_addr);

class MutexRankRegistrar {
 public:
  MutexRankRegistrar(const void* mutex_addr, int rank, const char* name)
      : addr_(mutex_addr) {
    RegisterMutexRank(mutex_addr, rank, name);
  }
  ~MutexRankRegistrar() { UnregisterMutexRank(addr_); }
  MutexRankRegistrar(const MutexRankRegistrar&) = delete;
  MutexRankRegistrar& operator=(const MutexRankRegistrar&) = delete;

 private:
  const void* addr_;
};

// --- Lock wrappers -----------------------------------------------------------------
// Drop-in for std::lock_guard / std::unique_lock on rank-annotated mutexes.
// The acquire check runs before the mutex is taken (inversions are reported at
// the site that would deadlock, not after). UniqueLock exposes the underlying
// std::unique_lock for condition_variable::wait — the rank stack keeps the
// mutex marked held across the wait, which is conservative and safe: waiting
// threads hold no *additional* rank.

class LockGuard {
 public:
  explicit LockGuard(std::mutex& m) : m_(m) {
    NoteLockAcquire(&m_);
    m_.lock();
  }
  ~LockGuard() {
    m_.unlock();
    NoteLockRelease(&m_);
  }
  LockGuard(const LockGuard&) = delete;
  LockGuard& operator=(const LockGuard&) = delete;

 private:
  std::mutex& m_;
};

class UniqueLock {
 public:
  explicit UniqueLock(std::mutex& m) : lk_(m) { NoteLockAcquire(&m); }
  ~UniqueLock() {
    if (lk_.owns_lock()) {
      lk_.unlock();
    }
    NoteLockRelease(lk_.mutex());
  }
  UniqueLock(const UniqueLock&) = delete;
  UniqueLock& operator=(const UniqueLock&) = delete;
  std::unique_lock<std::mutex>& std_lock() { return lk_; }

 private:
  std::unique_lock<std::mutex> lk_;
};

// --- Guarded transport syscalls ----------------------------------------------------
// The wire transport routes its socket I/O through these shims. In a reactor
// context with contracts enabled, each verifies the fd carries O_NONBLOCK — a
// blocking fd on the epoll thread is exactly the stall the reactor-block rule
// exists to prevent. Outside reactor context (or disabled) they are the plain
// syscalls. Signatures use void* so this header stays free of socket headers.
long GuardedRecv(int fd, void* buf, std::size_t len, int flags);
long GuardedSend(int fd, const void* buf, std::size_t len, int flags);
int GuardedConnect(int fd, const void* addr, unsigned int addrlen);

// Declared blocking wait (future::get, condvar wait with no reactor exemption):
// a violation when reached in reactor context. Always safe elsewhere.
void NoteBlockingPoint(const char* what);

}  // namespace contracts
}  // namespace dumbnet

// --- Annotation macros -------------------------------------------------------------

#define DN_CONTRACTS_CAT2(a, b) a##b
#define DN_CONTRACTS_CAT(a, b) DN_CONTRACTS_CAT2(a, b)

#define DN_HOT_SCOPE(name_)                       \
  ::dumbnet::contracts::HotScope DN_CONTRACTS_CAT(dn_hot_scope_, __COUNTER__) { \
    (name_)                                       \
  }

#define DN_HOT_EXEMPT(reason_)                    \
  ::dumbnet::contracts::HotExempt DN_CONTRACTS_CAT(dn_hot_exempt_, __COUNTER__) { \
    (reason_)                                     \
  }

#define DN_REACTOR_CONTEXT \
  ::dumbnet::contracts::ReactorScope DN_CONTRACTS_CAT(dn_reactor_scope_, __COUNTER__) {}

#define DN_BLOCKING_POINT(what_) ::dumbnet::contracts::NoteBlockingPoint(what_)

// Class-scope member declaration; place it directly after the mutex member it
// annotates. Registers &mutex in the rank registry for the object's lifetime.
#define DN_MUTEX_RANK(m_, rank_)                                       \
  ::dumbnet::contracts::MutexRankRegistrar DN_CONTRACTS_CAT(dn_rank_, m_) { \
    &(m_), (rank_), #m_                                                \
  }

#endif  // DUMBNET_SRC_ANALYSIS_CONTRACTS_H_
