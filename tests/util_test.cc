#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/util/json.h"
#include "src/util/logging.h"
#include "src/util/result.h"
#include "src/util/rng.h"
#include "src/util/stats.h"

namespace dumbnet {
namespace {

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
  EXPECT_EQ(r.value_or(0), 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Error(ErrorCode::kNotFound, "missing");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().code(), ErrorCode::kNotFound);
  EXPECT_EQ(r.error().message(), "missing");
  EXPECT_EQ(r.value_or(7), 7);
  EXPECT_EQ(r.error().ToString(), "not_found: missing");
}

TEST(ResultTest, MoveOnlyPayload) {
  Result<std::unique_ptr<int>> r = std::make_unique<int>(5);
  ASSERT_TRUE(r.ok());
  std::unique_ptr<int> v = std::move(r).value();
  EXPECT_EQ(*v, 5);
}

TEST(StatusTest, OkAndError) {
  Status ok = Status::Ok();
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(ok.ToString(), "ok");
  Status bad = Error(ErrorCode::kExhausted, "full");
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), ErrorCode::kExhausted);
}

TEST(ErrorCodeTest, AllNamesDistinct) {
  const ErrorCode codes[] = {
      ErrorCode::kOk,            ErrorCode::kInvalidArgument, ErrorCode::kNotFound,
      ErrorCode::kOutOfRange,    ErrorCode::kAlreadyExists,   ErrorCode::kUnavailable,
      ErrorCode::kPermissionDenied, ErrorCode::kExhausted,    ErrorCode::kMalformed,
      ErrorCode::kInternal};
  std::set<std::string> names;
  for (ErrorCode c : codes) {
    names.insert(ErrorCodeName(c));
  }
  EXPECT_EQ(names.size(), std::size(codes));
}

TEST(RngTest, Deterministic) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next64(), b.Next64());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    same += (a.Next64() == b.Next64()) ? 1 : 0;
  }
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformIntInBounds) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
    for (int i = 0; i < 1000; ++i) {
      EXPECT_LT(rng.UniformInt(bound), bound);
    }
  }
}

TEST(RngTest, UniformIntRoughlyUniform) {
  Rng rng(11);
  std::vector<int> counts(10, 0);
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    ++counts[rng.UniformInt(10)];
  }
  for (int c : counts) {
    EXPECT_NEAR(c, n / 10, n / 100);
  }
}

TEST(RngTest, ExponentialMean) {
  Rng rng(13);
  double sum = 0;
  const int n = 200000;
  for (int i = 0; i < n; ++i) {
    sum += rng.Exponential(5.0);
  }
  EXPECT_NEAR(sum / n, 5.0, 0.1);
}

TEST(RngTest, ParetoAboveScale) {
  Rng rng(17);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GE(rng.Pareto(2.0, 1.5), 2.0);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(19);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
}

TEST(RngTest, ShufflePreservesElements) {
  Rng rng(23);
  std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
  auto sorted = v;
  rng.Shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

TEST(RngTest, ForkIndependentButDeterministic) {
  Rng a(31), b(31);
  Rng fa = a.Fork(1), fb = b.Fork(1);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(fa.Next64(), fb.Next64());
  }
}

TEST(OnlineStatsTest, Basics) {
  OnlineStats s;
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(x);
  }
  EXPECT_EQ(s.count(), 4u);
  EXPECT_DOUBLE_EQ(s.mean(), 2.5);
  EXPECT_DOUBLE_EQ(s.min(), 1.0);
  EXPECT_DOUBLE_EQ(s.max(), 4.0);
  EXPECT_NEAR(s.variance(), 5.0 / 3.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(OnlineStatsTest, EmptyIsZero) {
  OnlineStats s;
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(SampleSetTest, ExactPercentiles) {
  SampleSet s;
  for (int i = 1; i <= 100; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.Percentile(0), 1.0);
  EXPECT_DOUBLE_EQ(s.Percentile(100), 100.0);
  EXPECT_NEAR(s.Percentile(50), 50.5, 0.01);
  EXPECT_NEAR(s.Percentile(99), 99.01, 0.1);
}

TEST(SampleSetTest, CdfMonotone) {
  SampleSet s;
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) {
    s.Add(rng.UniformDouble());
  }
  auto cdf = s.Cdf(50);
  ASSERT_EQ(cdf.size(), 50u);
  for (size_t i = 1; i < cdf.size(); ++i) {
    EXPECT_LE(cdf[i - 1].first, cdf[i].first);
    EXPECT_LT(cdf[i - 1].second, cdf[i].second);
  }
}

TEST(SampleSetTest, FractionBelow) {
  SampleSet s;
  for (int i = 1; i <= 10; ++i) {
    s.Add(i);
  }
  EXPECT_DOUBLE_EQ(s.FractionBelow(5.0), 0.5);
  EXPECT_DOUBLE_EQ(s.FractionBelow(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.FractionBelow(100.0), 1.0);
}

TEST(HistogramTest, BucketsAndClamping) {
  Histogram h(0.0, 10.0, 10);
  h.Add(-5);   // clamps low
  h.Add(0.5);
  h.Add(9.5);
  h.Add(25);   // clamps high
  EXPECT_EQ(h.total(), 4u);
  EXPECT_EQ(h.bucket(0), 2u);
  EXPECT_EQ(h.bucket(9), 2u);
}

TEST(LoggingTest, LevelFilters) {
  LogLevel old = GetLogLevel();
  SetLogLevel(LogLevel::kError);
  EXPECT_EQ(GetLogLevel(), LogLevel::kError);
  DN_INFO << "should not crash (filtered)";
  DN_ERROR << "visible (to stderr)";
  SetLogLevel(old);
}

TEST(JsonEscapeTest, EscapesQuotesBackslashesAndEveryControlCharacter) {
  EXPECT_EQ(JsonEscape("plain text"), "plain text");
  EXPECT_EQ(JsonEscape("a\"b"), "a\\\"b");
  EXPECT_EQ(JsonEscape("a\\b"), "a\\\\b");
  EXPECT_EQ(JsonEscape("a\nb"), "a\\nb");
  EXPECT_EQ(JsonEscape("a\tb"), "a\\tb");
  EXPECT_EQ(JsonEscape("a\rb"), "a\\u000db");
  EXPECT_EQ(JsonEscape(std::string("a\x01" "b")), "a\\u0001b");
  EXPECT_EQ(JsonEscape(std::string("\0", 1)), "\\u0000");
}

}  // namespace
}  // namespace dumbnet
