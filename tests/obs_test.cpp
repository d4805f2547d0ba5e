// Tests for the observability subsystem (src/obs/): metrics registry
// concurrency (these run under the ThreadSanitizer job too), tracing spans
// and Chrome trace export, run reports, and the opt-in log line prefix.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "parallel/thread_pool.hpp"
#include "util/logging.hpp"

namespace nonmask {
namespace {

/// Metrics collection is a process-wide switch: flip it on for the fixture
/// and restore the default (off) afterwards so other tests see dormant
/// instrumentation.
class ObsMetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Metrics::set_enabled(true);
    obs::Registry::instance().reset();
  }
  void TearDown() override {
    obs::Registry::instance().reset();
    obs::Metrics::set_enabled(false);
  }
};

TEST_F(ObsMetricsTest, DisabledRecordingIsDropped) {
  obs::Metrics::set_enabled(false);
  auto& c = obs::Registry::instance().counter("test.disabled");
  auto& h = obs::Registry::instance().histogram("test.disabled_hist");
  c.add(5);
  h.record(17);
  EXPECT_EQ(c.value(), 0u);
  EXPECT_EQ(h.snapshot().count, 0u);
  obs::Metrics::set_enabled(true);
  c.add(5);
  EXPECT_EQ(c.value(), 5u);
}

TEST_F(ObsMetricsTest, RegistryFindsByNameAndSnapshots) {
  auto& registry = obs::Registry::instance();
  auto& c1 = registry.counter("test.alpha");
  auto& c2 = registry.counter("test.alpha");
  EXPECT_EQ(&c1, &c2);  // find-or-create returns the same object
  c1.add(3);
  registry.gauge("test.rate").set(2.5);
  registry.histogram("test.h").record(8);

  const auto snap = registry.snapshot();
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "test.alpha") {
      saw_counter = true;
      EXPECT_EQ(value, 3u);
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name == "test.rate") {
      saw_gauge = true;
      EXPECT_DOUBLE_EQ(value, 2.5);
    }
  }
  for (const auto& [name, value] : snap.histograms) {
    if (name == "test.h") {
      saw_hist = true;
      EXPECT_EQ(value.count, 1u);
      EXPECT_EQ(value.min, 8u);
      EXPECT_EQ(value.max, 8u);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

TEST_F(ObsMetricsTest, HistogramStatsAndPercentiles) {
  auto& h = obs::Registry::instance().histogram("test.latency");
  for (std::uint64_t v : {0ull, 1ull, 2ull, 4ull, 100ull, 1000ull}) {
    h.record(v);
  }
  const auto snap = h.snapshot();
  EXPECT_EQ(snap.count, 6u);
  EXPECT_EQ(snap.sum, 1107u);
  EXPECT_EQ(snap.min, 0u);
  EXPECT_EQ(snap.max, 1000u);
  EXPECT_DOUBLE_EQ(snap.mean(), 1107.0 / 6.0);
  // Percentiles are bucket upper bounds clamped to [min, max].
  EXPECT_DOUBLE_EQ(snap.approx_percentile(0.0), 0.0);
  EXPECT_DOUBLE_EQ(snap.approx_percentile(1.0), 1000.0);
  const double p50 = snap.approx_percentile(0.5);
  EXPECT_GE(p50, 0.0);
  EXPECT_LE(p50, 1000.0);
  h.reset();
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().min, 0u);
}

// Satellite requirement: concurrent increments and histogram merges from
// the thread pool at 1, 2, and 8 threads. These are the cases the TSan CI
// job replays.
TEST_F(ObsMetricsTest, ConcurrentCounterIncrements) {
  for (unsigned threads : {1u, 2u, 8u}) {
    auto& c = obs::Registry::instance().counter(
        "test.concurrent." + std::to_string(threads));
    constexpr std::uint64_t kPerTask = 10'000;
    ThreadPool pool(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.submit([&c](unsigned) {
        for (std::uint64_t i = 0; i < kPerTask; ++i) c.add(1);
      });
    }
    pool.wait_idle();
    EXPECT_EQ(c.value(), kPerTask * threads) << threads << " threads";
  }
}

TEST_F(ObsMetricsTest, ConcurrentHistogramMerges) {
  for (unsigned threads : {1u, 2u, 8u}) {
    auto& h = obs::Registry::instance().histogram(
        "test.merge." + std::to_string(threads));
    constexpr std::uint64_t kPerTask = 4'096;
    ThreadPool pool(threads);
    for (unsigned t = 0; t < threads; ++t) {
      pool.submit([&h](unsigned) {
        for (std::uint64_t i = 0; i < kPerTask; ++i) h.record(i);
      });
    }
    pool.wait_idle();
    const auto snap = h.snapshot();
    EXPECT_EQ(snap.count, kPerTask * threads) << threads << " threads";
    EXPECT_EQ(snap.sum, threads * (kPerTask * (kPerTask - 1) / 2));
    EXPECT_EQ(snap.min, 0u);
    EXPECT_EQ(snap.max, kPerTask - 1);
  }
}

TEST_F(ObsMetricsTest, SnapshotDuringConcurrentWritesIsRaceFree) {
  auto& h = obs::Registry::instance().histogram("test.live");
  auto& c = obs::Registry::instance().counter("test.live");
  constexpr std::uint64_t kPerTask = 20'000;
  constexpr unsigned kWriters = 4;
  ThreadPool pool(kWriters);
  for (unsigned t = 0; t < kWriters; ++t) {
    pool.submit([&](unsigned) {
      for (std::uint64_t i = 0; i < kPerTask; ++i) {
        h.record(i & 0xFF);
        c.add(1);
      }
    });
  }
  // Snapshot while the writers run: every intermediate view must be
  // internally consistent (never more sum than count * max allows, and
  // monotone counts). TSan verifies the absence of data races.
  std::uint64_t last_count = 0;
  for (int i = 0; i < 100; ++i) {
    const auto snap = h.snapshot();
    EXPECT_GE(snap.count, last_count);
    last_count = snap.count;
    if (snap.count > 0) {
      EXPECT_LE(snap.min, snap.max);
      EXPECT_LE(snap.max, 0xFFu);
    }
  }
  pool.wait_idle();
  EXPECT_EQ(h.snapshot().count, kPerTask * kWriters);
  EXPECT_EQ(c.value(), kPerTask * kWriters);
}

class ObsTraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::Trace::set_enabled(true);
    obs::Trace::clear();
  }
  void TearDown() override {
    obs::Trace::set_enabled(false);
    obs::Trace::clear();
  }
};

TEST_F(ObsTraceTest, SpansRecordEventsWithThreadTags) {
  {
    obs::Span outer("test.outer");
    obs::Span inner("test.inner");
  }
  const auto events = obs::Trace::events();
  ASSERT_EQ(events.size(), 2u);
  // Destruction order: inner ends first.
  EXPECT_STREQ(events[0].name, "test.inner");
  EXPECT_STREQ(events[1].name, "test.outer");
  EXPECT_EQ(events[0].tid, current_thread_tag());
  EXPECT_GE(events[1].dur_us, events[0].dur_us);
}

TEST_F(ObsTraceTest, EndIsIdempotent) {
  obs::Span span("test.once");
  span.end();
  span.end();
  EXPECT_EQ(obs::Trace::event_count(), 1u);
}

TEST_F(ObsTraceTest, WorkerSpansCarryDistinctTids) {
  constexpr unsigned kWorkers = 4;
  ThreadPool pool(kWorkers);
  // Rendezvous: each task waits until every task has started, so all four
  // workers must participate (a single worker can't run two at once).
  std::atomic<unsigned> started{0};
  for (unsigned t = 0; t < kWorkers; ++t) {
    pool.submit([&started](unsigned) {
      obs::Span span("test.worker");
      started.fetch_add(1);
      while (started.load() < kWorkers) std::this_thread::yield();
    });
  }
  pool.wait_idle();
  const auto events = obs::Trace::events();
  ASSERT_EQ(events.size(), kWorkers);
  std::vector<unsigned> tids;
  for (const auto& e : events) tids.push_back(e.tid);
  std::sort(tids.begin(), tids.end());
  tids.erase(std::unique(tids.begin(), tids.end()), tids.end());
  EXPECT_EQ(tids.size(), kWorkers);  // one tag per participating worker
}

TEST_F(ObsTraceTest, ChromeTraceJsonShape) {
  { obs::Span span("test.export"); }
  std::ostringstream out;
  obs::Trace::write_chrome_trace(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  EXPECT_NE(json.find("\"test.export\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);

  std::ostringstream flame;
  obs::Trace::write_flame_summary(flame);
  EXPECT_NE(flame.str().find("test.export"), std::string::npos);

  obs::Trace::clear();
  EXPECT_EQ(obs::Trace::event_count(), 0u);
}

TEST_F(ObsTraceTest, SpanWithHistogramRecordsDuration) {
  obs::Metrics::set_enabled(true);
  auto& h = obs::Registry::instance().histogram("test.span_us");
  h.reset();
  {
    obs::Span span("test.timed", &h);
  }
  EXPECT_EQ(h.snapshot().count, 1u);
  h.reset();
  obs::Metrics::set_enabled(false);
}

TEST(ObsReportTest, RunReportContainsSectionsAndMetrics) {
  obs::RunReport report("unit_test", "toy");
  report.add_number("answer", std::uint64_t{42});
  report.add_text("note", "hello");
  report.add("inline", "{\"k\":1}");
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"tool\":\"unit_test\""), std::string::npos);
  EXPECT_NE(json.find("\"design\":\"toy\""), std::string::npos);
  EXPECT_NE(json.find("\"answer\":42"), std::string::npos);
  EXPECT_NE(json.find("\"note\":\"hello\""), std::string::npos);
  EXPECT_NE(json.find("\"inline\":{\"k\":1}"), std::string::npos);
  EXPECT_NE(json.find("\"metrics\":"), std::string::npos);
  EXPECT_NE(json.find("\"started_at\":"), std::string::npos);
  EXPECT_NE(json.find("\"wall_ms\":"), std::string::npos);
}

TEST(ObsReportTest, StatsAndReportsSerialize) {
  const auto stats = summarize({1.0, 2.0, 3.0});
  const std::string json = obs::to_json(stats);
  EXPECT_NE(json.find("\"count\":3"), std::string::npos);
  EXPECT_NE(json.find("\"mean\":2"), std::string::npos);

  ClosureReport closure;
  closure.closed = true;
  closure.states_checked = 7;
  const std::string cjson = obs::to_json(closure);
  EXPECT_NE(cjson.find("\"closed\":true"), std::string::npos);
  EXPECT_NE(cjson.find("\"states_checked\":7"), std::string::npos);
}

TEST(LogPrefixTest, DefaultFormatUnchanged) {
  std::ostringstream out;
  Log::set_sink(&out);
  Log::set_level(LogLevel::kInfo);
  NONMASK_INFO() << "plain line";
  Log::set_level(LogLevel::kOff);
  Log::set_sink(nullptr);
  EXPECT_EQ(out.str(), "[INFO ] plain line\n");
}

TEST(LogPrefixTest, OptInPrefixAddsTimestampAndThreadTag) {
  std::ostringstream out;
  Log::set_sink(&out);
  Log::set_level(LogLevel::kInfo);
  Log::set_prefix(true);
  NONMASK_INFO() << "stamped line";
  Log::set_prefix(false);
  Log::set_level(LogLevel::kOff);
  Log::set_sink(nullptr);
  // "[2026-08-06T12:34:56.789Z] [t3] [INFO ] stamped line"
  const std::regex expected(
      R"(\[\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}\.\d{3}Z\] \[t\d+\] )"
      R"(\[INFO \] stamped line\n)");
  EXPECT_TRUE(std::regex_match(out.str(), expected)) << out.str();
}

TEST(LogPrefixTest, ThreadTagsAreStableAndDistinct) {
  const unsigned mine = current_thread_tag();
  EXPECT_EQ(current_thread_tag(), mine);  // stable within a thread
  unsigned other = 0;
  ThreadPool pool(1);
  pool.submit([&other](unsigned) { other = current_thread_tag(); });
  pool.wait_idle();
  EXPECT_NE(other, 0u);
  EXPECT_NE(other, mine);
}

}  // namespace
}  // namespace nonmask
