// Tests for the support utilities: RNG determinism, statistics, string and
// table formatting, the JSON codec, parallel helpers.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "insched/support/json.hpp"
#include "insched/support/parallel.hpp"
#include "insched/support/random.hpp"
#include "insched/support/stats.hpp"
#include "insched/support/string_util.hpp"
#include "insched/support/table.hpp"
#include "insched/support/units.hpp"

namespace insched {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformIndexCoversRange) {
  Rng rng(11);
  std::vector<int> hits(10, 0);
  for (int i = 0; i < 10000; ++i) ++hits[rng.uniform_index(10)];
  for (int h : hits) EXPECT_GT(h, 700);  // roughly uniform
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(3);
  bool saw_lo = false, saw_hi = false;
  for (int i = 0; i < 2000; ++i) {
    const auto v = rng.uniform_int(-2, 2);
    EXPECT_GE(v, -2);
    EXPECT_LE(v, 2);
    saw_lo = saw_lo || v == -2;
    saw_hi = saw_hi || v == 2;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, NormalMoments) {
  Rng rng(5);
  Accumulator acc;
  for (int i = 0; i < 50000; ++i) acc.add(rng.normal(3.0, 2.0));
  EXPECT_NEAR(acc.mean(), 3.0, 0.05);
  EXPECT_NEAR(acc.stddev(), 2.0, 0.05);
}

TEST(Stats, SummaryBasics) {
  const std::vector<double> v{1.0, 2.0, 3.0, 4.0};
  const Summary s = summarize(v);
  EXPECT_EQ(s.count, 4u);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 4.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.5);
  EXPECT_NEAR(s.stddev, 1.2909944, 1e-6);
}

TEST(Stats, SummaryEmptyIsZero) {
  const Summary s = summarize({});
  EXPECT_EQ(s.count, 0u);
  EXPECT_DOUBLE_EQ(s.mean, 0.0);
}

TEST(Stats, PercentileInterpolates) {
  const std::vector<double> v{10.0, 20.0, 30.0, 40.0};
  EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
  EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
}

TEST(Stats, RelativeErrors) {
  const std::vector<double> pred{1.1, 1.9};
  const std::vector<double> act{1.0, 2.0};
  EXPECT_NEAR(mean_relative_error(pred, act), 0.075, 1e-12);
  EXPECT_NEAR(max_relative_error(pred, act), 0.1, 1e-12);
}

TEST(Stats, LinearFitRecoversLine) {
  std::vector<double> x(20), y(20);
  for (int i = 0; i < 20; ++i) {
    x[static_cast<std::size_t>(i)] = i;
    y[static_cast<std::size_t>(i)] = 2.5 * i - 4.0;
  }
  const LinearFit fit = linear_fit(x, y);
  EXPECT_NEAR(fit.slope, 2.5, 1e-10);
  EXPECT_NEAR(fit.intercept, -4.0, 1e-9);
  EXPECT_NEAR(fit.r2, 1.0, 1e-12);
}

TEST(Stats, AccumulatorMatchesBatch) {
  Rng rng(9);
  std::vector<double> values;
  Accumulator acc;
  for (int i = 0; i < 500; ++i) {
    const double v = rng.uniform(-5.0, 5.0);
    values.push_back(v);
    acc.add(v);
  }
  const Summary s = summarize(values);
  EXPECT_NEAR(acc.mean(), s.mean, 1e-12);
  EXPECT_NEAR(acc.stddev(), s.stddev, 1e-9);
  EXPECT_DOUBLE_EQ(acc.min(), s.min);
  EXPECT_DOUBLE_EQ(acc.max(), s.max);
}

TEST(StringUtil, FormatAndSplit) {
  EXPECT_EQ(format("%d-%s", 3, "x"), "3-x");
  const auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  hi \n"), "hi");
  EXPECT_EQ(join({"a", "b"}, "::"), "a::b");
}

TEST(StringUtil, HumanReadable) {
  EXPECT_EQ(format_seconds(0.0123), "12.30 ms");
  EXPECT_EQ(format_seconds(3.5), "3.50 s");
  EXPECT_EQ(format_bytes(1.5 * GiB), "1.50 GiB");
}

TEST(TableRender, AlignsColumns) {
  Table t("demo");
  t.set_header({"name", "value"});
  t.add("alpha", 1.5);
  t.add("b", 22);
  const std::string out = t.render();
  EXPECT_NE(out.find("| alpha | 1.5"), std::string::npos);
  EXPECT_NE(out.find("demo"), std::string::npos);
  EXPECT_EQ(t.row_count(), 2u);
}

std::string json_string_of(const std::string& text) {
  json::Reader reader(text);
  std::string out = reader.string();
  reader.expect_end();
  return out;
}

double json_number_of(const std::string& text) {
  json::Reader reader(text);
  const double out = reader.number();
  reader.expect_end();
  return out;
}

long json_integer_of(const std::string& text) {
  json::Reader reader(text);
  const long out = reader.integer();
  reader.expect_end();
  return out;
}

TEST(Json, EveryByteRoundTrips) {
  for (int byte = 0; byte < 256; ++byte) {
    const std::string text = std::string("a") + static_cast<char>(byte) + "z";
    std::string encoded;
    json::append_string(encoded, text);
    for (std::size_t i = 0; i < encoded.size(); ++i)
      EXPECT_GE(static_cast<unsigned char>(encoded[i]), 0x20) << "byte " << byte;
    EXPECT_EQ(json_string_of(encoded), text) << "byte " << byte;
  }
}

TEST(Json, WriterEscapesUseShortFormsAndCopiesUtf8) {
  std::string out;
  json::append_string(out, "q\"b\\\b\f\n\r\t\x01\x1f caf\xc3\xa9");
  EXPECT_EQ(out, "\"q\\\"b\\\\\\b\\f\\n\\r\\t\\u0001\\u001f caf\xc3\xa9\"");
}

TEST(Json, DecodesUnicodeEscapesToUtf8) {
  EXPECT_EQ(json_string_of("\"caf\\u00e9\""), "caf\xc3\xa9");
  EXPECT_EQ(json_string_of("\"\\ud83d\\ude00\""), "\xf0\x9f\x98\x80");
  EXPECT_EQ(json_string_of("\"\\u20AC\""), "\xe2\x82\xac");
  EXPECT_EQ(json_string_of("\"r\\u0064f \\/ \\b\\f\""), "rdf / \b\f");
  EXPECT_THROW((void)json_string_of("\"\\ud83d\""), std::runtime_error);         // lone high
  EXPECT_THROW((void)json_string_of("\"\\ud83dx\""), std::runtime_error);
  EXPECT_THROW((void)json_string_of("\"\\ud83d\\u0041\""), std::runtime_error);  // no low half
  EXPECT_THROW((void)json_string_of("\"\\ude00\""), std::runtime_error);         // lone low
  EXPECT_THROW((void)json_string_of("\"\\u00g1\""), std::runtime_error);
  EXPECT_THROW((void)json_string_of("\"\\u00\""), std::runtime_error);
  EXPECT_THROW((void)json_string_of("\"\\x\""), std::runtime_error);
  EXPECT_THROW((void)json_string_of("\"abc"), std::runtime_error);
}

TEST(Json, NumbersAreFinite) {
  EXPECT_DOUBLE_EQ(json_number_of("-0.25e2"), -25.0);
  EXPECT_DOUBLE_EQ(json_number_of(" 1E+2 "), 100.0);
  EXPECT_DOUBLE_EQ(json_number_of("1e-400"), 0.0);  // underflow reads as zero
  for (const char* bad :
       {"nan", "inf", "-inf", "1e400", "+1", ".5", "1.", "1e", "-", "0x10", "01", ""})
    EXPECT_THROW((void)json_number_of(bad), std::runtime_error) << bad;
}

TEST(Json, IntegersAreIntegralAndFitLong) {
  EXPECT_EQ(json_integer_of("42"), 42);
  EXPECT_EQ(json_integer_of("3.0"), 3);
  EXPECT_EQ(json_integer_of("1e3"), 1000);
  EXPECT_EQ(json_integer_of("-9223372036854775808"), std::numeric_limits<long>::min());
  EXPECT_EQ(json_integer_of("9223372036854775807"), std::numeric_limits<long>::max());
  for (const char* bad : {"2.5", "1e300", "9223372036854775808", "9.3e18", "nan", "true"})
    EXPECT_THROW((void)json_integer_of(bad), std::runtime_error) << bad;
}

TEST(Json, RawCapsNestingAt64) {
  const auto raw_of = [](const std::string& text) {
    json::Reader reader(text);
    std::string out = reader.raw();
    reader.expect_end();
    return out;
  };
  const auto nested = [](int depth) {
    return std::string(static_cast<std::size_t>(depth), '[') +
           std::string(static_cast<std::size_t>(depth), ']');
  };
  EXPECT_EQ(raw_of(nested(json::Reader::kMaxDepth)), nested(json::Reader::kMaxDepth));
  EXPECT_THROW((void)raw_of(nested(json::Reader::kMaxDepth + 1)), std::runtime_error);

  const std::string value = R"({"a": [1, -2.5e3, "x\"y", true, false, null, {}], "b": {}})";
  const std::string line = value + " ,";
  json::Reader mixed(line);
  EXPECT_EQ(mixed.raw(), value);
  EXPECT_TRUE(mixed.accept(','));
  mixed.expect_end();
  for (const char* bad : {"[1,]", "{\"a\"}", "[nan]", "[1 2]", "{1:2}", "tru", "[\"\\q\"]"})
    EXPECT_THROW((void)raw_of(bad), std::runtime_error) << bad;
}

TEST(Parallel, ForCoversAllIndices) {
  const std::size_t n = 100000;
  std::vector<int> hits(n, 0);
  parallel_for(n, [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) hits[i] += 1;
  });
  EXPECT_EQ(std::accumulate(hits.begin(), hits.end(), 0), static_cast<int>(n));
}

TEST(Parallel, ReduceMatchesSerialSum) {
  const std::size_t n = 200000;
  const double total = parallel_reduce_sum(n, [](std::size_t i) { return static_cast<double>(i); });
  EXPECT_DOUBLE_EQ(total, static_cast<double>(n) * (n - 1) / 2.0);
}

TEST(Parallel, ThreadCountOverride) {
  set_thread_count(2);
  EXPECT_EQ(thread_count(), 2);
  set_thread_count(0);
  EXPECT_GE(thread_count(), 1);
}

// Regression test for the insched_serve startup deadlock on single-core
// hosts: parallel_run returns when the jobs finish, an instant *before* the
// pool worker re-parks, so an immediately following parallel_run could fail
// try_submit and defer tid 1 inline behind tid 0. A caller whose tid 0 never
// returns (the daemon's accept loop) then hangs. task_pool_wait_idle() is
// the fix: after it returns, the next section's nonzero tids are guaranteed
// real threads, proven here by a two-thread rendezvous that can only
// complete when tid 0 and tid 1 run concurrently.
TEST(Parallel, WaitIdleGuaranteesConcurrentWorker) {
  for (int round = 0; round < 50; ++round) {
    parallel_run(2, [](int) {});  // spawn (first round) and exercise the race
    task_pool_wait_idle(1);
    std::atomic<int> arrived{0};
    parallel_run(2, [&](int) {
      arrived.fetch_add(1);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(60);
      while (arrived.load() < 2) {
        ASSERT_LT(std::chrono::steady_clock::now(), deadline) << "tids did not run concurrently";
        std::this_thread::yield();
      }
    });
    EXPECT_EQ(arrived.load(), 2);
  }
}

}  // namespace
}  // namespace insched
