// Tests for the dumbnet-lint engine (src/analysis/lint): every rule must fire
// on a known-bad fixture with its stable id, stay quiet on the matching
// known-good fixture, and honor allow-annotations (which require a reason).
// Fixtures live in raw strings; the linter blanks string literals before
// scanning, so this file itself lints clean.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/analysis/lint.h"

namespace dumbnet {
namespace {

bool Fires(const std::vector<LintFinding>& findings, const std::string& rule) {
  for (const LintFinding& f : findings) {
    if (f.rule == rule) {
      return true;
    }
  }
  return false;
}

size_t Count(const std::vector<LintFinding>& findings, const std::string& rule) {
  size_t n = 0;
  for (const LintFinding& f : findings) {
    n += f.rule == rule ? 1u : 0u;
  }
  return n;
}

TEST(LintRuleTest, RawRandomFires) {
  const std::string bad = R"cc(
#include <random>
int Draw() {
  std::mt19937 gen(42);
  return rand();
}
)cc";
  auto findings = LintSource("src/host/fixture.cc", bad);
  EXPECT_EQ(Count(findings, "raw-random"), 2u);
  // The blessed rng implementation is exempt by path.
  EXPECT_FALSE(Fires(LintSource("src/util/rng.cc", bad), "raw-random"));
  // Rng-based code is clean.
  const std::string good = R"cc(
#include "src/util/rng.h"
uint64_t Draw(Rng* rng) { return rng->Next(); }
)cc";
  EXPECT_TRUE(LintSource("src/host/fixture.cc", good).empty());
}

TEST(LintRuleTest, WallClockFires) {
  const std::string bad = R"cc(
#include <chrono>
#include <ctime>
double Now() {
  auto t = std::chrono::steady_clock::now();
  (void)t;
  return static_cast<double>(time(nullptr));
}
)cc";
  auto findings = LintSource("src/sim/fixture.cc", bad);
  EXPECT_EQ(Count(findings, "wall-clock"), 2u);
  EXPECT_FALSE(Fires(LintSource("src/util/logging.cc", bad), "wall-clock"));
  // `time` as a plain identifier (not a call) is not flagged.
  const std::string good = R"cc(
struct Sample { unsigned long time; };
unsigned long Get(const Sample& s) { return s.time; }
)cc";
  EXPECT_FALSE(Fires(LintSource("src/sim/fixture.cc", good), "wall-clock"));
}

TEST(LintRuleTest, UnorderedIterFiresInOrderSensitiveLayers) {
  const std::string bad = R"cc(
#include <unordered_map>
struct Agent {
  std::unordered_map<int, int> peers_;
  int Sum() {
    int total = 0;
    for (const auto& [k, v] : peers_) {
      total += v;
    }
    return total;
  }
};
)cc";
  EXPECT_TRUE(Fires(LintSource("src/host/fixture.cc", bad), "unordered-iter"));
  // The same code outside an order-sensitive layer is fine.
  EXPECT_FALSE(Fires(LintSource("src/analysis/fixture.cc", bad), "unordered-iter"));
  // Iterator-style loops are caught too.
  const std::string bad_iter = R"cc(
#include <unordered_set>
int Count(const std::unordered_set<int>& live) {
  int n = 0;
  for (auto it = live.begin(); it != live.end(); ++it) {
    ++n;
  }
  return n;
}
)cc";
  EXPECT_TRUE(Fires(LintSource("src/ctrl/fixture.cc", bad_iter), "unordered-iter"));
  // Ordered containers never fire.
  const std::string good = R"cc(
#include <map>
int Sum(const std::map<int, int>& m) {
  int total = 0;
  for (const auto& [k, v] : m) {
    total += v;
  }
  return total;
}
)cc";
  EXPECT_FALSE(Fires(LintSource("src/host/fixture.cc", good), "unordered-iter"));
}

TEST(LintRuleTest, UnorderedIterSeesCompanionHeaderMembers) {
  const std::string header = R"cc(
#ifndef FIXTURE_H_
#define FIXTURE_H_
#include <unordered_map>
struct Table {
  std::unordered_map<int, int> entries_;
  void Walk();
};
#endif  // FIXTURE_H_
)cc";
  const std::string source = R"cc(
#include "fixture.h"
void Table::Walk() {
  for (const auto& [k, v] : entries_) {
    (void)k;
  }
}
)cc";
  // Without the header the declaration is invisible; with it, the loop fires.
  EXPECT_FALSE(Fires(LintSource("src/switch/fixture.cc", source), "unordered-iter"));
  EXPECT_TRUE(
      Fires(LintSource("src/switch/fixture.cc", source, header), "unordered-iter"));
}

TEST(LintRuleTest, AuditMessageFires) {
  const std::string bad = R"cc(
void Check(int n) {
  DUMBNET_ASSERT(n > 0);
  DUMBNET_AUDIT(n < 10, "");
}
)cc";
  auto findings = LintSource("src/host/fixture.cc", bad);
  EXPECT_EQ(Count(findings, "audit-message"), 2u);
  // Messages present (and conditions containing <=) are clean.
  const std::string good = R"cc(
void Check(int n) {
  DUMBNET_ASSERT(n > 0, "n must be positive before dispatch");
  DUMBNET_AUDIT(n <= 10, "n exceeds the configured fan-out bound");
}
)cc";
  EXPECT_FALSE(Fires(LintSource("src/host/fixture.cc", good), "audit-message"));
}

TEST(LintRuleTest, LogKvKeyFires) {
  const std::string bad = R"cc(
void Emit(int n) {
  DN_LOG_KV(kInfo, "Host.PathMiss").Kv("DstMac", n);
}
)cc";
  auto findings = LintSource("src/host/fixture.cc", bad);
  EXPECT_EQ(Count(findings, "log-kv-key"), 2u);
  const std::string good = R"cc(
void Emit(int n) {
  DN_LOG_KV(kInfo, "host.path_miss").Kv("dst.mac", n);
}
)cc";
  EXPECT_FALSE(Fires(LintSource("src/host/fixture.cc", good), "log-kv-key"));
}

TEST(LintRuleTest, IncludeGuardFires) {
  const std::string missing = R"cc(
#include <vector>
struct Naked {};
)cc";
  EXPECT_TRUE(Fires(LintSource("src/host/fixture.h", missing), "include-guard"));
  const std::string mismatched = R"cc(
#ifndef FIXTURE_A_H_
#define FIXTURE_B_H_
struct Naked {};
#endif
)cc";
  EXPECT_TRUE(Fires(LintSource("src/host/fixture.h", mismatched), "include-guard"));
  const std::string bad_style = R"cc(
#ifndef fixture_guard
#define fixture_guard
struct Naked {};
#endif
)cc";
  EXPECT_TRUE(Fires(LintSource("src/host/fixture.h", bad_style), "include-guard"));
  const std::string good = R"cc(
#ifndef DUMBNET_SRC_HOST_FIXTURE_H_
#define DUMBNET_SRC_HOST_FIXTURE_H_
struct Guarded {};
#endif  // DUMBNET_SRC_HOST_FIXTURE_H_
)cc";
  EXPECT_FALSE(Fires(LintSource("src/host/fixture.h", good), "include-guard"));
  // Source files are not subject to the guard rule.
  EXPECT_FALSE(Fires(LintSource("src/host/fixture.cc", missing), "include-guard"));
}

TEST(LintRuleTest, UsingNamespaceHeaderFires) {
  const std::string bad = R"cc(
#ifndef DUMBNET_SRC_HOST_FIXTURE_H_
#define DUMBNET_SRC_HOST_FIXTURE_H_
using namespace std;
#endif  // DUMBNET_SRC_HOST_FIXTURE_H_
)cc";
  EXPECT_TRUE(
      Fires(LintSource("src/host/fixture.h", bad), "using-namespace-header"));
  // Allowed in sources (benches and tools use it), and using-declarations are
  // fine anywhere.
  EXPECT_FALSE(
      Fires(LintSource("src/host/fixture.cc", bad), "using-namespace-header"));
  const std::string good = R"cc(
#ifndef DUMBNET_SRC_HOST_FIXTURE_H_
#define DUMBNET_SRC_HOST_FIXTURE_H_
using std::swap;
namespace dn = dumbnet;
#endif  // DUMBNET_SRC_HOST_FIXTURE_H_
)cc";
  EXPECT_FALSE(
      Fires(LintSource("src/host/fixture.h", good), "using-namespace-header"));
}

TEST(LintRuleTest, PointerKeyContainersFireInOrderSensitiveLayers) {
  const std::string bad = R"cc(
#include <map>
#include <set>
#include <unordered_map>
struct Agent;
std::map<Agent*, int> by_agent;
std::set<const Agent*> live;
std::unordered_map<Agent*, int> fast;
)cc";
  auto findings = LintSource("src/host/fixture.cc", bad);
  EXPECT_EQ(Count(findings, "pointer-key"), 3u);
  // Outside the order-sensitive layers, pointer keys are someone else's
  // problem (analysis tooling sorts its own output).
  EXPECT_FALSE(Fires(LintSource("src/analysis/fixture.cc", bad), "pointer-key"));
  // Pointer VALUES are fine — only the key position is order-bearing.
  const std::string good = R"cc(
#include <map>
#include <vector>
struct Agent;
std::map<int, Agent*> by_index;
std::map<std::pair<int, int>, Agent*> by_cell;
std::vector<Agent*> agents;
)cc";
  EXPECT_FALSE(Fires(LintSource("src/host/fixture.cc", good), "pointer-key"));
}

TEST(LintRuleTest, PointerToIntegerCastFires) {
  const std::string bad = R"cc(
#include <cstdint>
struct Agent;
uint64_t Key(Agent* a) { return reinterpret_cast<uint64_t>(a); }
size_t Key2(Agent* a) { return reinterpret_cast<std::uintptr_t>(a); }
)cc";
  auto findings = LintSource("src/switch/fixture.cc", bad);
  EXPECT_EQ(Count(findings, "pointer-key"), 2u);
  // Pointer-to-pointer reinterpretation does not mint an address-derived key.
  const std::string good = R"cc(
#include <cstdint>
struct Agent;
char* Bytes(Agent* a) { return reinterpret_cast<char*>(a); }
const uint8_t* View(Agent* a) { return reinterpret_cast<const uint8_t*>(a); }
)cc";
  EXPECT_FALSE(Fires(LintSource("src/switch/fixture.cc", good), "pointer-key"));
  // allow() with a reason silences it like any other rule.
  const std::string allowed = R"cc(
#include <cstdint>
struct Agent;
// dn-lint: allow(pointer-key, log-only tag never ordered or compared)
uint64_t Tag(Agent* a) { return reinterpret_cast<uint64_t>(a); }
)cc";
  EXPECT_FALSE(Fires(LintSource("src/switch/fixture.cc", allowed), "pointer-key"));
}

TEST(LintRuleTest, HotAllocFires) {
  // Runtime twin: ContractsTest.AllocationInsideHotScopeIsCounted — the same
  // push_back-in-hot-scope shape tripping the interposer.
  const std::string bad = R"cc(
void Fast(std::vector<int>& v) {
  DN_HOT_SCOPE("fixture.fast");
  v.push_back(1);
}
)cc";
  EXPECT_TRUE(Fires(LintSource("src/host/fixture.cc", bad), "hot-alloc"));
  const std::string bad_new = R"cc(
int* Fast() {
  DN_HOT_SCOPE("fixture.fast");
  return new int(7);
}
)cc";
  EXPECT_TRUE(Fires(LintSource("src/host/fixture.cc", bad_new), "hot-alloc"));
  // Outside any hot scope the same tokens are fine.
  const std::string good = R"cc(
void Slow(std::vector<int>& v) {
  v.push_back(1);
}
)cc";
  EXPECT_FALSE(Fires(LintSource("src/host/fixture.cc", good), "hot-alloc"));
  // A DN_HOT_EXEMPT block fences a declared-cold subpath.
  const std::string exempt = R"cc(
void Fast(std::vector<int>& v, bool miss) {
  DN_HOT_SCOPE("fixture.fast");
  if (miss) {
    DN_HOT_EXEMPT("cache miss refills the table");
    v.push_back(1);
  }
  Use(v);
}
)cc";
  EXPECT_FALSE(Fires(LintSource("src/host/fixture.cc", exempt), "hot-alloc"));
  // The region ends with the scope's enclosing block.
  const std::string after = R"cc(
void Mixed(std::vector<int>& v) {
  {
    DN_HOT_SCOPE("fixture.fast");
    Use(v);
  }
  v.push_back(1);
}
)cc";
  EXPECT_FALSE(Fires(LintSource("src/host/fixture.cc", after), "hot-alloc"));
  // make_unique in call position is allocation too.
  const std::string maker = R"cc(
void Fast() {
  DN_HOT_SCOPE("fixture.fast");
  auto p = std::make_unique<int>(3);
}
)cc";
  EXPECT_TRUE(Fires(LintSource("src/host/fixture.cc", maker), "hot-alloc"));
}

TEST(LintRuleTest, ReactorBlockFires) {
  // Runtime twin: ContractsTest.BlockingPointInReactorContextIsCounted.
  const std::string bad = R"cc(
void OnReadable(int fd, char* buf, size_t len) {
  DN_REACTOR_CONTEXT;
  ssize_t n = ::read(fd, buf, len);
  Use(n);
}
)cc";
  EXPECT_TRUE(Fires(LintSource("src/wire/fixture.cc", bad), "reactor-block"));
  const std::string bad_lock = R"cc(
void OnReadable(std::mutex& mu) {
  DN_REACTOR_CONTEXT;
  std::lock_guard<std::mutex> guard(mu);
}
)cc";
  EXPECT_TRUE(Fires(LintSource("src/wire/fixture.cc", bad_lock), "reactor-block"));
  // The guarded shims are the blessed path and carry no flagged token.
  const std::string good = R"cc(
void OnReadable(int fd, char* buf, size_t len) {
  DN_REACTOR_CONTEXT;
  long n = contracts::GuardedRecv(fd, buf, len, 0);
  Use(n);
}
)cc";
  EXPECT_FALSE(Fires(LintSource("src/wire/fixture.cc", good), "reactor-block"));
  // Blocking tokens outside a reactor region never fire.
  const std::string outside = R"cc(
void Sync(int fd, char* buf, size_t len) {
  ssize_t n = ::read(fd, buf, len);
  Use(n);
}
)cc";
  EXPECT_FALSE(Fires(LintSource("src/wire/fixture.cc", outside), "reactor-block"));
}

TEST(LintRuleTest, MutexRankFires) {
  // Runtime twin: ContractsTest.RankInversionFlaggedAtAcquireTime (the
  // annotated pair); here the *missing* annotation is the static failure.
  const std::string bad = R"cc(
class Reactor {
 private:
  std::mutex post_mu_;
};
)cc";
  EXPECT_TRUE(Fires(LintSource("src/wire/fixture.h", bad), "mutex-rank"));
  const std::string good = R"cc(
class Reactor {
 private:
  std::mutex post_mu_;
  DN_MUTEX_RANK(post_mu_, contracts::kRankWireReactorPost);
};
)cc";
  EXPECT_FALSE(Fires(LintSource("src/wire/fixture.h", good), "mutex-rank"));
  // Only the deployment-runtime layers demand ranks; a sim-side mutex is free.
  EXPECT_FALSE(Fires(LintSource("src/sim/fixture.h", bad), "mutex-rank"));
}

TEST(LintSuppressionTest, AllowSilencesSameAndNextLine) {
  const std::string same_line = R"cc(
int Draw() {
  return rand();  // dn-lint: allow(raw-random, fixture exercises suppression)
}
)cc";
  EXPECT_TRUE(LintSource("src/host/fixture.cc", same_line).empty());
  const std::string line_above = R"cc(
int Draw() {
  // dn-lint: allow(raw-random, fixture exercises suppression)
  return rand();
}
)cc";
  EXPECT_TRUE(LintSource("src/host/fixture.cc", line_above).empty());
  // The annotation is rule-scoped: other rules on the line still fire.
  const std::string wrong_rule = R"cc(
int Draw() {
  // dn-lint: allow(wall-clock, wrong rule on purpose)
  return rand();
}
)cc";
  EXPECT_TRUE(Fires(LintSource("src/host/fixture.cc", wrong_rule), "raw-random"));
  // And it does not leak two lines down.
  const std::string too_far = R"cc(
int Draw() {
  // dn-lint: allow(raw-random, too far away)
  int x = 1;
  return rand() + x;
}
)cc";
  EXPECT_TRUE(Fires(LintSource("src/host/fixture.cc", too_far), "raw-random"));
}

TEST(LintSuppressionTest, BadSuppressionsAreThemselvesFindings) {
  // A reason is mandatory.
  const std::string no_reason = R"cc(
int Draw() {
  return rand();  // dn-lint: allow(raw-random)
}
)cc";
  auto findings = LintSource("src/host/fixture.cc", no_reason);
  EXPECT_TRUE(Fires(findings, "bad-suppression"));
  // ...and a reasonless annotation does not suppress.
  EXPECT_TRUE(Fires(findings, "raw-random"));
  // Unknown rule names are flagged.
  const std::string unknown = R"cc(
int f();  // dn-lint: allow(no-such-rule, whatever)
)cc";
  EXPECT_TRUE(
      Fires(LintSource("src/host/fixture.cc", unknown), "bad-suppression"));
}

TEST(LintScannerTest, CommentsAndStringsDoNotFire) {
  const std::string decoys = R"cc(
// rand() and std::mt19937 in a comment are not calls.
/* neither is steady_clock in a block comment */
const char* kDoc = "call rand() for entropy";
const char* kRaw = R"(std::random_device inside a raw string)";
int value = 1'000'000;  // digit separators are not char literals
)cc";
  EXPECT_TRUE(LintSource("src/host/fixture.cc", decoys).empty());
}

TEST(LintScannerTest, EveryRuleIdIsKnown) {
  // KnownLintRules drives allow() validation; a rule that fires but is not
  // registered could never be suppressed.
  const std::vector<std::string>& rules = KnownLintRules();
  for (const char* id : {"raw-random", "wall-clock", "unordered-iter",
                         "audit-message", "log-kv-key", "include-guard",
                         "using-namespace-header", "bad-suppression",
                         "hot-alloc", "reactor-block", "mutex-rank"}) {
    bool found = false;
    for (const std::string& r : rules) {
      found = found || r == id;
    }
    EXPECT_TRUE(found) << id;
  }
}

TEST(LintOutputTest, FormatAndJsonCarryRuleFileLine) {
  const std::string bad = "int Draw() { return rand(); }\n";
  auto findings = LintSource("src/host/fixture.cc", bad);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1u);
  const std::string text = FormatLintFindings(findings);
  EXPECT_NE(text.find("src/host/fixture.cc:1: [raw-random]"), std::string::npos)
      << text;
  const std::string json = LintFindingsJson(findings);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\":\"raw-random\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\":1"), std::string::npos) << json;
  EXPECT_EQ(LintFindingsJson({}), "{\"count\":0,\"findings\":[]}");
}

}  // namespace
}  // namespace dumbnet
