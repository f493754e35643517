#include "src/analysis/contracts.h"

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>

#include "src/telemetry/telemetry.h"

namespace dumbnet {
namespace contracts {

namespace internal {
std::atomic<bool> g_enabled{false};
thread_local ThreadState g_tls;
}  // namespace internal

namespace {

std::atomic<uint64_t> g_hot_allocs{0};
std::atomic<uint64_t> g_rank_inversions{0};
std::atomic<uint64_t> g_reactor_blocks{0};
std::atomic<FailMode> g_fail_mode{FailMode::kCount};
std::atomic<ViolationHook> g_hook{nullptr};

// Most recent violation, rendered into fixed storage without allocating.
// Guarded by a spinlock so concurrent writers cannot interleave bytes; readers
// (tests, failure reports) race benignly against the next violation.
std::atomic_flag g_last_lock = ATOMIC_FLAG_INIT;
char g_last_message[512];

const char* KindName(Violation::Kind kind) {
  switch (kind) {
    case Violation::Kind::kHotAlloc:
      return "hot-alloc";
    case Violation::Kind::kRankInversion:
      return "rank-inversion";
    case Violation::Kind::kReactorBlock:
      return "reactor-block";
  }
  return "?";
}

// Records, reports, and (in kAbort mode) dies. Must not allocate on the
// kHotAlloc path: it can run inside operator new. snprintf into fixed buffers
// only. The caller has already set ts.in_hook.
void ReportViolation(const Violation& v) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "contract violation [%s] scope=%s %s (a=%llu b=%llu)",
                KindName(v.kind), v.scope != nullptr ? v.scope : "<none>",
                v.detail != nullptr ? v.detail : "",
                static_cast<unsigned long long>(v.a),
                static_cast<unsigned long long>(v.b));
  while (g_last_lock.test_and_set(std::memory_order_acquire)) {
  }
  const size_t copied = std::min(std::strlen(buf), sizeof(g_last_message) - 1);
  std::memcpy(g_last_message, buf, copied);
  g_last_message[copied] = '\0';
  g_last_lock.clear(std::memory_order_release);

  const ViolationHook hook = g_hook.load(std::memory_order_relaxed);
  if (hook != nullptr) {
    hook(v);
  }
  if (g_fail_mode.load(std::memory_order_relaxed) == FailMode::kAbort) {
    const size_t len = std::strlen(buf);
    buf[len < sizeof(buf) - 1 ? len : sizeof(buf) - 2] = '\n';
    ssize_t ignored = ::write(2, buf, len + 1);
    (void)ignored;
    std::abort();
  }
}

}  // namespace

namespace internal {

void NoteHotAlloc(std::size_t bytes) {
  ThreadState& ts = g_tls;
  ts.in_hook = true;
  g_hot_allocs.fetch_add(1, std::memory_order_relaxed);
  Violation v;
  v.kind = Violation::Kind::kHotAlloc;
  const int depth = ts.hot_depth;
  const int cap = static_cast<int>(sizeof(ts.scope_names) / sizeof(ts.scope_names[0]));
  v.scope = depth > 0 && depth <= cap ? ts.scope_names[depth - 1] : "<deep>";
  v.detail = "operator new inside DN_HOT_SCOPE";
  v.a = bytes;
  ReportViolation(v);
  ts.in_hook = false;
}

}  // namespace internal

void SetEnabled(bool on) {
  internal::g_enabled.store(on, std::memory_order_relaxed);
}

void SetFailMode(FailMode mode) { g_fail_mode.store(mode, std::memory_order_relaxed); }
FailMode GetFailMode() { return g_fail_mode.load(std::memory_order_relaxed); }
void SetViolationHook(ViolationHook hook) {
  g_hook.store(hook, std::memory_order_relaxed);
}

CounterSnapshot Counters() {
  CounterSnapshot s;
  s.hot_allocs = g_hot_allocs.load(std::memory_order_relaxed);
  s.rank_inversions = g_rank_inversions.load(std::memory_order_relaxed);
  s.reactor_blocks = g_reactor_blocks.load(std::memory_order_relaxed);
  return s;
}

void ResetCounters() {
  g_hot_allocs.store(0, std::memory_order_relaxed);
  g_rank_inversions.store(0, std::memory_order_relaxed);
  g_reactor_blocks.store(0, std::memory_order_relaxed);
  while (g_last_lock.test_and_set(std::memory_order_acquire)) {
  }
  g_last_message[0] = '\0';
  g_last_lock.clear(std::memory_order_release);
}

void PublishTelemetry() {
  const CounterSnapshot s = Counters();
  auto publish = [](const char* name, uint64_t value) {
    telemetry::Counter* c = telemetry::MetricsRegistry::Global().GetCounter(name);
    c->Reset();
    c->Inc(value);
  };
  publish("contracts.hot_allocs", s.hot_allocs);
  publish("contracts.rank_inversions", s.rank_inversions);
  publish("contracts.reactor_blocks", s.reactor_blocks);
}

const char* LastViolationMessage() { return g_last_message; }

int HotDepth() { return internal::g_tls.hot_depth; }
int ExemptDepth() { return internal::g_tls.exempt_depth; }
int ReactorDepth() { return internal::g_tls.reactor_depth; }

const char* CurrentHotScope() {
  const internal::ThreadState& ts = internal::g_tls;
  const int cap = static_cast<int>(sizeof(ts.scope_names) / sizeof(ts.scope_names[0]));
  if (ts.hot_depth <= 0 || ts.hot_depth > cap) {
    return nullptr;
  }
  return ts.scope_names[ts.hot_depth - 1];
}

// --- Lock ranks --------------------------------------------------------------------

namespace {

struct RankInfo {
  int rank = -1;
  const char* name = nullptr;
};

// Address -> declared rank. Mutex addresses here never feed simulation state or
// ordering visible to a run — the map exists only to diagnose lock misuse.
std::mutex& RankRegistryMu() {
  static std::mutex mu;
  return mu;
}
// dn-lint: allow(pointer-key, diagnostic registry only; order never reaches the event stream)
std::map<const void*, RankInfo>& RankRegistry() {
  static std::map<const void*, RankInfo> registry;
  return registry;
}

}  // namespace

void RegisterMutexRank(const void* mutex_addr, int rank, const char* name) {
  std::lock_guard<std::mutex> lock(RankRegistryMu());
  RankRegistry()[mutex_addr] = RankInfo{rank, name};
}

void UnregisterMutexRank(const void* mutex_addr) {
  std::lock_guard<std::mutex> lock(RankRegistryMu());
  RankRegistry().erase(mutex_addr);
}

int LookupMutexRank(const void* mutex_addr) {
  std::lock_guard<std::mutex> lock(RankRegistryMu());
  auto it = RankRegistry().find(mutex_addr);
  return it == RankRegistry().end() ? -1 : it->second.rank;
}

void NoteLockAcquire(const void* mutex_addr) {
  if (!Enabled()) {
    return;
  }
  RankInfo info;
  {
    std::lock_guard<std::mutex> lock(RankRegistryMu());
    auto it = RankRegistry().find(mutex_addr);
    if (it == RankRegistry().end()) {
      return;  // unranked mutexes are invisible to the tracker
    }
    info = it->second;
  }
  internal::ThreadState& ts = internal::g_tls;
  for (int i = 0; i < ts.held_count; ++i) {
    if (ts.held[i].rank >= info.rank) {
      g_rank_inversions.fetch_add(1, std::memory_order_relaxed);
      ts.in_hook = true;
      Violation v;
      v.kind = Violation::Kind::kRankInversion;
      v.scope = info.name;
      v.detail = "acquiring a rank at or below one already held";
      v.a = static_cast<uint64_t>(ts.held[i].rank);
      v.b = static_cast<uint64_t>(info.rank);
      ReportViolation(v);
      ts.in_hook = false;
      break;
    }
  }
  const int cap = static_cast<int>(sizeof(ts.held) / sizeof(ts.held[0]));
  if (ts.held_count < cap) {
    ts.held[ts.held_count] = {mutex_addr, info.rank, info.name};
    ++ts.held_count;
  }
}

void NoteLockRelease(const void* mutex_addr) {
  internal::ThreadState& ts = internal::g_tls;
  for (int i = ts.held_count - 1; i >= 0; --i) {
    if (ts.held[i].addr == mutex_addr) {
      for (int j = i; j + 1 < ts.held_count; ++j) {
        ts.held[j] = ts.held[j + 1];
      }
      --ts.held_count;
      return;
    }
  }
}

// --- Reactor blocking guards -------------------------------------------------------

namespace {

bool FdIsNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && (flags & O_NONBLOCK) != 0;
}

void NoteReactorBlock(const char* what, const char* detail) {
  g_reactor_blocks.fetch_add(1, std::memory_order_relaxed);
  internal::ThreadState& ts = internal::g_tls;
  ts.in_hook = true;
  Violation v;
  v.kind = Violation::Kind::kReactorBlock;
  v.scope = what;
  v.detail = detail;
  ReportViolation(v);
  ts.in_hook = false;
}

void CheckReactorFd(int fd, const char* what) {
  if (!Enabled() || internal::g_tls.reactor_depth == 0) {
    return;
  }
  if (!FdIsNonBlocking(fd)) {
    NoteReactorBlock(what, "blocking fd used on the reactor thread");
  }
}

}  // namespace

void NoteBlockingPoint(const char* what) {
  if (!Enabled() || internal::g_tls.reactor_depth == 0) {
    return;
  }
  NoteReactorBlock(what, "declared blocking wait reached in reactor context");
}

long GuardedRecv(int fd, void* buf, std::size_t len, int flags) {
  CheckReactorFd(fd, "recv");
  return ::recv(fd, buf, len, flags);
}

long GuardedSend(int fd, const void* buf, std::size_t len, int flags) {
  CheckReactorFd(fd, "send");
  return ::send(fd, buf, len, flags);
}

int GuardedConnect(int fd, const void* addr, unsigned int addrlen) {
  CheckReactorFd(fd, "connect");
  return ::connect(fd, static_cast<const sockaddr*>(addr), addrlen);
}

}  // namespace contracts
}  // namespace dumbnet

// --- Global allocation interposer --------------------------------------------------
// Replaces the global operator new/delete family so every C++ allocation in a
// binary that links this TU flows through contracts::NoteAlloc. malloc-based so
// the sanitizers' malloc interceptors still see every block, and so throwing,
// nothrow, and aligned forms can share one deallocation path (free). These are
// strong definitions: referencing any contracts symbol (every DN_HOT_SCOPE call
// site does) pulls this object in and overrides the library operators
// process-wide.

#include <new>

namespace {

void* ContractsAlloc(std::size_t size) {
  dumbnet::contracts::NoteAlloc(size);
  return std::malloc(size != 0 ? size : 1);
}

void* ContractsAllocAligned(std::size_t size, std::size_t align) {
  dumbnet::contracts::NoteAlloc(size);
  void* p = nullptr;
  if (align < sizeof(void*)) {
    align = sizeof(void*);
  }
  if (posix_memalign(&p, align, size != 0 ? size : 1) != 0) {
    return nullptr;
  }
  return p;
}

// The one deallocation path for both allocators above. Out of line: a delete
// inlined down to a bare free() inside a container's deallocate is paired by
// GCC with the library's operator new declaration (-Wmismatched-new-delete).
[[gnu::noinline]] void ContractsFree(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) {
  void* p = ContractsAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size) {
  void* p = ContractsAlloc(size);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return ContractsAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return ContractsAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t align) {
  void* p = ContractsAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new[](std::size_t size, std::align_val_t align) {
  void* p = ContractsAllocAligned(size, static_cast<std::size_t>(align));
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* operator new(std::size_t size, std::align_val_t align,
                   const std::nothrow_t&) noexcept {
  return ContractsAllocAligned(size, static_cast<std::size_t>(align));
}

void* operator new[](std::size_t size, std::align_val_t align,
                     const std::nothrow_t&) noexcept {
  return ContractsAllocAligned(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { ContractsFree(p); }
void operator delete[](void* p) noexcept { ContractsFree(p); }
void operator delete(void* p, std::size_t) noexcept { ContractsFree(p); }
void operator delete[](void* p, std::size_t) noexcept { ContractsFree(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { ContractsFree(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { ContractsFree(p); }
void operator delete(void* p, std::align_val_t) noexcept { ContractsFree(p); }
void operator delete[](void* p, std::align_val_t) noexcept { ContractsFree(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { ContractsFree(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  ContractsFree(p);
}
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  ContractsFree(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  ContractsFree(p);
}
