// Tests for the hot-path contract layer (src/analysis/contracts): region-stack
// bookkeeping, the operator-new interposer, reactor blocking detection, and
// lock-rank inversion tracking. Each enforcement test pairs with a lint-side
// fixture in lint_test.cc so the same violation shape is provably caught both
// statically and at runtime.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "src/analysis/contracts.h"
#include "src/telemetry/telemetry.h"

namespace dumbnet {
namespace {

// Enables enforcement for one test and restores a pristine disabled state
// afterwards, so contract accounting never leaks into neighboring tests.
class ContractsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    contracts::SetViolationHook(nullptr);
    contracts::SetFailMode(contracts::FailMode::kCount);
    contracts::ResetCounters();
    contracts::SetEnabled(true);
  }
  void TearDown() override {
    contracts::SetEnabled(false);
    contracts::SetViolationHook(nullptr);
    contracts::SetFailMode(contracts::FailMode::kCount);
    contracts::ResetCounters();
  }
};

// ---------------------------------------------------------------------------------
// Region stack

TEST_F(ContractsTest, RegionStackNestsAndUnwinds) {
  EXPECT_EQ(contracts::HotDepth(), 0);
  EXPECT_EQ(contracts::CurrentHotScope(), nullptr);
  {
    DN_HOT_SCOPE("outer");
    EXPECT_EQ(contracts::HotDepth(), 1);
    EXPECT_STREQ(contracts::CurrentHotScope(), "outer");
    {
      DN_HOT_SCOPE("inner");
      EXPECT_EQ(contracts::HotDepth(), 2);
      EXPECT_STREQ(contracts::CurrentHotScope(), "inner");
    }
    EXPECT_EQ(contracts::HotDepth(), 1);
    EXPECT_STREQ(contracts::CurrentHotScope(), "outer");
  }
  EXPECT_EQ(contracts::HotDepth(), 0);
}

TEST_F(ContractsTest, ExemptAndReactorDepthsTrackTheirBlocks) {
  {
    DN_HOT_SCOPE("scope");
    EXPECT_EQ(contracts::ExemptDepth(), 0);
    {
      DN_HOT_EXEMPT("cold subpath under test");
      EXPECT_EQ(contracts::ExemptDepth(), 1);
      {
        DN_HOT_EXEMPT("nested cold subpath");
        EXPECT_EQ(contracts::ExemptDepth(), 2);
      }
      EXPECT_EQ(contracts::ExemptDepth(), 1);
    }
    EXPECT_EQ(contracts::ExemptDepth(), 0);
  }
  EXPECT_EQ(contracts::ReactorDepth(), 0);
  {
    DN_REACTOR_CONTEXT;
    EXPECT_EQ(contracts::ReactorDepth(), 1);
  }
  EXPECT_EQ(contracts::ReactorDepth(), 0);
}

TEST_F(ContractsTest, DisabledRuntimeOpensNoRegions) {
  contracts::SetEnabled(false);
  DN_HOT_SCOPE("ignored");
  DN_REACTOR_CONTEXT;
  EXPECT_EQ(contracts::HotDepth(), 0);
  EXPECT_EQ(contracts::ReactorDepth(), 0);
}

// ---------------------------------------------------------------------------------
// Hot-alloc interposer. The lint half of this fixture is
// LintRuleTest.HotAllocFires in lint_test.cc: the same push_back-in-hot-scope
// shape, caught lexically there and by the interposer here.

TEST_F(ContractsTest, AllocationInsideHotScopeIsCounted) {
  std::vector<int> v;
  v.reserve(1);  // ensure the growth below actually allocates
  std::vector<int> grow;
  {
    DN_HOT_SCOPE("test.hot_fixture");
    // dn-lint: allow(hot-alloc, this IS the runtime violation fixture)
    grow.push_back(1);
  }
  const contracts::CounterSnapshot after = contracts::Counters();
  EXPECT_GE(after.hot_allocs, 1u);
  EXPECT_NE(std::string(contracts::LastViolationMessage()).find("test.hot_fixture"),
            std::string::npos);
}

TEST_F(ContractsTest, ExemptBlockSuppressesAllocAccounting) {
  {
    DN_HOT_SCOPE("test.exempt_fixture");
    DN_HOT_EXEMPT("declared cold for this test");
    std::vector<int> cold;
    cold.push_back(1);
  }
  EXPECT_EQ(contracts::Counters().hot_allocs, 0u);
}

TEST_F(ContractsTest, AllocationOutsideAnyScopeIsFree) {
  std::vector<int> v;
  v.push_back(1);
  EXPECT_EQ(contracts::Counters().hot_allocs, 0u);
}

TEST_F(ContractsTest, ViolationHookSeesHotAlloc) {
  static int hook_calls;
  static contracts::Violation last;
  hook_calls = 0;
  contracts::SetViolationHook([](const contracts::Violation& v) {
    ++hook_calls;
    last = v;
  });
  {
    DN_HOT_SCOPE("test.hook_fixture");
    // A direct operator-new call: unlike a new-expression, it can never be
    // elided by the optimizer, so the interposer always sees it.
    // dn-lint: allow(hot-alloc, this IS the runtime violation fixture)
    void* p = ::operator new(32);
    ::operator delete(p);
  }
  EXPECT_GE(hook_calls, 1);
  EXPECT_EQ(last.kind, contracts::Violation::Kind::kHotAlloc);
  EXPECT_STREQ(last.scope, "test.hook_fixture");
  EXPECT_GE(last.a, 32u);
}

// ---------------------------------------------------------------------------------
// Lock ranks. The lint half is LintRuleTest.MutexRankFires: an unannotated
// std::mutex member in src/wire fails statically; here the annotated pair
// proves the runtime tracker flags the inversion at acquire time.

struct RankedPair {
  std::mutex low;
  DN_MUTEX_RANK(low, 10);
  std::mutex high;
  DN_MUTEX_RANK(high, 20);
};

// The two rank-order tests lock the same pair in opposite orders on purpose.
// Each heap-allocates its pair: ThreadSanitizer forgets a mutex when its memory
// is freed, whereas two stack pairs at the same addresses would join into a
// real lock-order cycle in its history.
TEST_F(ContractsTest, AscendingRankAcquisitionIsClean) {
  auto owned = std::make_unique<RankedPair>();
  RankedPair& m = *owned;
  {
    contracts::LockGuard a(m.low);
    contracts::LockGuard b(m.high);
  }
  EXPECT_EQ(contracts::Counters().rank_inversions, 0u);
}

TEST_F(ContractsTest, RankInversionFlaggedAtAcquireTime) {
  auto owned = std::make_unique<RankedPair>();
  RankedPair& m = *owned;
  static int inversions_seen;
  inversions_seen = 0;
  contracts::SetViolationHook([](const contracts::Violation& v) {
    if (v.kind == contracts::Violation::Kind::kRankInversion) {
      ++inversions_seen;
    }
  });
  {
    contracts::LockGuard a(m.high);
    // Acquiring rank 10 while rank 20 is held: flagged here, before the lock
    // blocks — no second thread or actual deadlock interleaving is needed.
    contracts::LockGuard b(m.low);
  }
  EXPECT_EQ(contracts::Counters().rank_inversions, 1u);
  EXPECT_EQ(inversions_seen, 1);
  EXPECT_NE(std::string(contracts::LastViolationMessage()).find("low"),
            std::string::npos);
}

TEST_F(ContractsTest, SameRankReacquisitionIsAnInversion) {
  // Strictly increasing means rank R cannot be taken twice; self-deadlock is
  // the degenerate inversion.
  std::mutex a;
  contracts::MutexRankRegistrar ra(&a, 30, "a");
  std::mutex b;
  contracts::MutexRankRegistrar rb(&b, 30, "b");
  {
    contracts::LockGuard ga(a);
    contracts::LockGuard gb(b);
  }
  EXPECT_EQ(contracts::Counters().rank_inversions, 1u);
}

TEST_F(ContractsTest, UnrankedMutexesAreNotTracked) {
  std::mutex loose_a;
  std::mutex loose_b;
  {
    contracts::LockGuard a(loose_b);
    contracts::LockGuard b(loose_a);
  }
  EXPECT_EQ(contracts::Counters().rank_inversions, 0u);
}

TEST_F(ContractsTest, RegistrarUnregistersOnDestruction) {
  std::mutex m;
  {
    contracts::MutexRankRegistrar r(&m, 42, "m");
    EXPECT_EQ(contracts::LookupMutexRank(&m), 42);
  }
  EXPECT_EQ(contracts::LookupMutexRank(&m), -1);
}

// ---------------------------------------------------------------------------------
// Reactor context. The lint half is LintRuleTest.ReactorBlockFires.

TEST_F(ContractsTest, BlockingPointInReactorContextIsCounted) {
  DN_BLOCKING_POINT("outside reactor: fine");
  EXPECT_EQ(contracts::Counters().reactor_blocks, 0u);
  {
    DN_REACTOR_CONTEXT;
    DN_BLOCKING_POINT("test.blocking_fixture");
  }
  EXPECT_EQ(contracts::Counters().reactor_blocks, 1u);
  EXPECT_NE(std::string(contracts::LastViolationMessage()).find("test.blocking_fixture"),
            std::string::npos);
}

TEST_F(ContractsTest, GuardedRecvFlagsBlockingFdOnlyInReactorContext) {
  int sv[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);  // blocking fds
  const char byte = 'x';
  ASSERT_EQ(::send(sv[1], &byte, 1, 0), 1);
  char buf = 0;
  // Outside reactor context a blocking fd is legitimate.
  EXPECT_EQ(contracts::GuardedRecv(sv[0], &buf, 1, 0), 1);
  EXPECT_EQ(contracts::Counters().reactor_blocks, 0u);
  ASSERT_EQ(::send(sv[1], &byte, 1, 0), 1);
  {
    DN_REACTOR_CONTEXT;
    EXPECT_EQ(contracts::GuardedRecv(sv[0], &buf, 1, 0), 1);
  }
  EXPECT_EQ(contracts::Counters().reactor_blocks, 1u);
  ::close(sv[0]);
  ::close(sv[1]);
}

// ---------------------------------------------------------------------------------
// Telemetry export

TEST_F(ContractsTest, PublishTelemetryExportsCounters) {
  telemetry::SetEnabled(true);
  {
    DN_HOT_SCOPE("test.telemetry_fixture");
    std::vector<int> v;
    // dn-lint: allow(hot-alloc, this IS the runtime violation fixture)
    v.push_back(1);
  }
  contracts::PublishTelemetry();
  auto& reg = telemetry::MetricsRegistry::Global();
  EXPECT_GE(reg.GetCounter("contracts.hot_allocs")->value(), 1u);
  EXPECT_EQ(reg.GetCounter("contracts.rank_inversions")->value(), 0u);
  // Republishing replaces rather than accumulates.
  contracts::ResetCounters();
  contracts::PublishTelemetry();
  EXPECT_EQ(reg.GetCounter("contracts.hot_allocs")->value(), 0u);
}

}  // namespace
}  // namespace dumbnet
