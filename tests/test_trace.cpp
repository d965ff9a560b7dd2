// Tests for the src/obs/ tracing + metrics layer: span nesting, counter
// parity with the SimReport accounting, Chrome trace-event JSON validity,
// and the zero-overhead no-op path when tracing is disabled.
#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <future>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "engine/rdd.h"
#include "engine/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace yafim::obs {
namespace {

engine::Context::Options small_cluster() {
  engine::Context::Options opts;
  opts.cluster = sim::ClusterConfig::with_nodes(2);
  opts.host_threads = 4;
  return opts;
}

/// Fresh-tracer fixture: every test starts with an empty, running tracer
/// and zeroed counters, and leaves tracing disabled afterwards.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().reset();
    Tracer::instance().start();
  }
  void TearDown() override {
    Tracer::instance().stop();
    Tracer::instance().reset();
  }
};

const TraceEvent* find_complete(const std::vector<TraceEvent>& events,
                                const std::string& name) {
  for (const auto& e : events) {
    if (e.phase == TraceEvent::Phase::kComplete && e.name == name) return &e;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Minimal recursive-descent JSON validator. Accepts exactly the RFC 8259
// grammar (objects, arrays, strings with escapes, numbers, true/false/null);
// used to assert the Chrome trace export is well-formed without a JSON dep.
class JsonValidator {
 public:
  explicit JsonValidator(const std::string& text) : s_(text) {}

  bool valid() {
    skip_ws();
    if (!value()) return false;
    skip_ws();
    return pos_ == s_.size();
  }

 private:
  bool value() {
    if (pos_ >= s_.size()) return false;
    switch (s_[pos_]) {
      case '{': return object();
      case '[': return array();
      case '"': return string();
      case 't': return literal("true");
      case 'f': return literal("false");
      case 'n': return literal("null");
      default: return number();
    }
  }

  bool object() {
    ++pos_;  // '{'
    skip_ws();
    if (peek() == '}') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!string()) return false;
      skip_ws();
      if (peek() != ':') return false;
      ++pos_;
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == '}') { ++pos_; return true; }
      return false;
    }
  }

  bool array() {
    ++pos_;  // '['
    skip_ws();
    if (peek() == ']') { ++pos_; return true; }
    while (true) {
      skip_ws();
      if (!value()) return false;
      skip_ws();
      if (peek() == ',') { ++pos_; continue; }
      if (peek() == ']') { ++pos_; return true; }
      return false;
    }
  }

  bool string() {
    if (peek() != '"') return false;
    ++pos_;
    while (pos_ < s_.size()) {
      const char c = s_[pos_];
      if (c == '"') { ++pos_; return true; }
      if (static_cast<unsigned char>(c) < 0x20) return false;
      if (c == '\\') {
        ++pos_;
        if (pos_ >= s_.size()) return false;
        const char esc = s_[pos_];
        if (esc == 'u') {
          for (int i = 0; i < 4; ++i) {
            ++pos_;
            if (pos_ >= s_.size() || !std::isxdigit(
                    static_cast<unsigned char>(s_[pos_]))) {
              return false;
            }
          }
        } else if (std::string("\"\\/bfnrt").find(esc) == std::string::npos) {
          return false;
        }
      }
      ++pos_;
    }
    return false;  // unterminated
  }

  bool number() {
    const size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!digits()) return false;
    if (peek() == '.') {
      ++pos_;
      if (!digits()) return false;
    }
    if (peek() == 'e' || peek() == 'E') {
      ++pos_;
      if (peek() == '+' || peek() == '-') ++pos_;
      if (!digits()) return false;
    }
    return pos_ > start;
  }

  bool digits() {
    const size_t start = pos_;
    while (pos_ < s_.size() &&
           std::isdigit(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool literal(const char* word) {
    const size_t len = std::string(word).size();
    if (s_.compare(pos_, len, word) != 0) return false;
    pos_ += len;
    return true;
  }

  char peek() const { return pos_ < s_.size() ? s_[pos_] : '\0'; }
  void skip_ws() {
    while (pos_ < s_.size() &&
           std::isspace(static_cast<unsigned char>(s_[pos_]))) {
      ++pos_;
    }
  }

  const std::string& s_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------

TEST_F(TraceTest, SpanNestingTimestampsContained) {
  {
    Span outer("test", "outer");
    {
      Span inner("test", "inner");
      inner.arg("depth", 2);
    }
    outer.arg("depth", 1);
  }
  auto events = Tracer::instance().events();
  const TraceEvent* outer = find_complete(events, "outer");
  const TraceEvent* inner = find_complete(events, "inner");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  EXPECT_EQ(outer->tid, inner->tid) << "same thread, same lane";
  EXPECT_GE(inner->ts_us, outer->ts_us);
  EXPECT_LE(inner->ts_us + inner->dur_us, outer->ts_us + outer->dur_us)
      << "inner span must be contained in outer span";
  ASSERT_EQ(inner->args.size(), 1u);
  EXPECT_EQ(inner->args[0].first, "depth");
  EXPECT_EQ(inner->args[0].second, 2u);
}

TEST_F(TraceTest, ShuffleCounterMatchesSimReport) {
  engine::Context ctx(small_cluster());
  std::vector<std::pair<int, u64>> pairs;
  for (int i = 0; i < 1000; ++i) pairs.emplace_back(i, 1);
  ctx.parallelize(std::move(pairs), 4)
      .reduce_by_key([](u64 a, u64 b) { return a + b; })
      .collect();
  u64 report_shuffle = 0;
  for (const auto& s : ctx.report().stages()) {
    report_shuffle += s.shuffle_bytes;
  }
  // Same workload as test_rdd's ReduceByKeyRecordsShuffleBytes: 1000
  // distinct (int, u64) keys at 12 bytes each. The obs counter is fed from
  // the identical StageRecord, so the two accountings must agree exactly.
  EXPECT_EQ(report_shuffle, 12000u);
  EXPECT_EQ(counter_value(CounterId::kShuffleBytes), report_shuffle);
}

TEST_F(TraceTest, CacheCountersTrackPersistedPartitions) {
  // Exact hit/miss counts: ambient cache corruption would turn hits back
  // into misses, so opt out of the env fault profile.
  engine::Context::Options opts = small_cluster();
  opts.fault = engine::FaultProfile{};
  engine::Context ctx(opts);
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto rdd =
      ctx.parallelize(std::move(data), 4).map([](const int& x) { return x; });
  rdd.persist();
  rdd.collect();  // fills the cache: one miss per partition
  EXPECT_EQ(counter_value(CounterId::kCacheMisses), 4u);
  EXPECT_EQ(counter_value(CounterId::kCacheHits), 0u);
  rdd.collect();  // served from cache: one hit per partition
  EXPECT_EQ(counter_value(CounterId::kCacheMisses), 4u);
  EXPECT_EQ(counter_value(CounterId::kCacheHits), 4u);
}

TEST_F(TraceTest, LineageRecomputeCounterMatchesFaultInjector) {
  // The explicit fail_partition below must stay the only recompute cause,
  // so opt out of ambient cache-corruption injection.
  engine::Context::Options opts = small_cluster();
  opts.fault = engine::FaultProfile{};
  engine::Context ctx(opts);
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto rdd =
      ctx.parallelize(std::move(data), 4).map([](const int& x) { return x; });
  rdd.persist();
  rdd.collect();
  ASSERT_TRUE(ctx.fault_injector().fail_partition(rdd.id(), 2));
  EXPECT_EQ(counter_value(CounterId::kFaultPartitionsDropped), 1u);
  rdd.collect();  // recomputes the lost partition from lineage
  EXPECT_EQ(ctx.fault_injector().recomputations(), 1u);
  EXPECT_EQ(counter_value(CounterId::kLineageRecomputes),
            ctx.fault_injector().recomputations());
}

TEST_F(TraceTest, StageAndTaskSpansEmitted) {
  engine::Context ctx(small_cluster());
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  ctx.parallelize(std::move(data), 4)
      .map([](const int& x) { return x + 1; })
      .collect("trace:collect");
  auto events = Tracer::instance().events();
  const TraceEvent* stage = find_complete(events, "trace:collect");
  ASSERT_NE(stage, nullptr);
  EXPECT_STREQ(stage->cat, "stage");
  u32 tasks = 0;
  for (const auto& e : events) {
    if (e.phase == TraceEvent::Phase::kComplete && std::string(e.cat) == "task" &&
        e.name == "trace:collect") {
      ++tasks;
      EXPECT_GE(e.ts_us + e.dur_us, stage->ts_us);
      EXPECT_LE(e.ts_us + e.dur_us, stage->ts_us + stage->dur_us)
          << "task spans end inside their stage span";
    }
  }
  EXPECT_EQ(tasks, 4u) << "one task span per partition";
}

TEST_F(TraceTest, ChromeJsonIsValidAndCarriesSpans) {
  {
    Span stage("stage", "json:stage \"quoted\\name\"");
    Span task("task", "json:task");
  }
  instant("fault", "json:instant", {{"rdd", 7}});
  count(CounterId::kShuffleBytes, 123);
  const std::string json = Tracer::instance().chrome_json();

  EXPECT_TRUE(JsonValidator(json).valid()) << json;
  // Spot-check the trace-event envelope and that escaping happened.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(json.find("\\\"quoted\\\\name\\\""), std::string::npos);
  EXPECT_NE(json.find("shuffle.bytes"), std::string::npos);
}

TEST_F(TraceTest, SummaryAggregatesStages) {
  {
    Span stage("stage", "sum:stage");
    Span task("task", "sum:stage");
  }
  const std::string summary = Tracer::instance().summary();
  EXPECT_NE(summary.find("sum:stage"), std::string::npos);
  EXPECT_NE(summary.find("counter"), std::string::npos);
}

TEST_F(TraceTest, DisabledPathEmitsNothing) {
  Tracer::instance().stop();
  ASSERT_FALSE(enabled());
  {
    Span span("test", "should-not-appear");
    span.arg("x", 1);
  }
  instant("test", "should-not-appear-either");
  count(CounterId::kShuffleBytes, 999);

  // Run a real workload too: instrumentation hooks in the engine must all
  // no-op when tracing is off.
  engine::Context ctx(small_cluster());
  std::vector<int> data(100);
  std::iota(data.begin(), data.end(), 0);
  auto rdd =
      ctx.parallelize(std::move(data), 4).map([](const int& x) { return x; });
  rdd.persist();
  rdd.collect();
  rdd.collect();

  EXPECT_TRUE(Tracer::instance().events().empty());
  EXPECT_EQ(counter_value(CounterId::kShuffleBytes), 0u);
  EXPECT_EQ(counter_value(CounterId::kCacheHits), 0u);
  EXPECT_EQ(counter_value(CounterId::kPoolTasks), 0u);
}

TEST_F(TraceTest, ResetClearsEventsAndCounters) {
  {
    Span span("test", "gone-after-reset");
  }
  count(CounterId::kBroadcastBytes, 42);
  Tracer::instance().reset();
  EXPECT_TRUE(Tracer::instance().events().empty());
  EXPECT_EQ(counter_value(CounterId::kBroadcastBytes), 0u);
}

TEST_F(TraceTest, PoolQueueWaitReportsSumAndMax) {
  EXPECT_STREQ(counter_name(CounterId::kPoolQueueWaitUsSum),
               "pool.queue_wait_us_sum");
  EXPECT_STREQ(counter_name(CounterId::kPoolQueueWaitUsMax),
               "pool.queue_wait_us_max");
  // One worker held busy for 20 ms: the three tasks queued behind it each
  // wait at least that long, so the sum is about three times the max.
  {
    engine::ThreadPool pool(1);
    std::vector<std::future<void>> done;
    done.push_back(pool.submit(
        [] { std::this_thread::sleep_for(std::chrono::milliseconds(20)); }));
    for (int i = 0; i < 3; ++i) done.push_back(pool.submit([] {}));
    for (auto& f : done) f.get();
  }
  const u64 sum = counter_value(CounterId::kPoolQueueWaitUsSum);
  const u64 max = counter_value(CounterId::kPoolQueueWaitUsMax);
  EXPECT_GE(max, 15000u);
  EXPECT_GE(sum, 3 * 15000u);
  EXPECT_LE(max, sum);
  EXPECT_LT(max, sum);
  Tracer::instance().reset();
  EXPECT_EQ(counter_value(CounterId::kPoolQueueWaitUsMax), 0u);
}

TEST_F(TraceTest, NamedCounterRegistryRoundTrips) {
  CounterRegistry::instance().get("custom.metric").add(5);
  CounterRegistry::instance().get("custom.metric").add(2);
  const auto snapshot = CounterRegistry::instance().snapshot();
  u64 value = 0;
  for (const auto& [name, v] : snapshot) {
    if (name == "custom.metric") value = v;
  }
  EXPECT_EQ(value, 7u);
}

}  // namespace
}  // namespace yafim::obs
