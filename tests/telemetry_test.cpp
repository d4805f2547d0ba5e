// Live telemetry: RSS helpers, the heartbeat JSONL schema, off-by-default
// cost contracts, the metrics switch telemetry borrows, the bounded
// in-memory series, the background sampler under concurrent writers, and
// the final-heartbeat == run-report accounting identity.
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "checker/state_space.hpp"
#include "obs/dashboard.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/rss.hpp"
#include "obs/telemetry.hpp"
#include "protocols/token_ring.hpp"
#include "store/concurrent_set.hpp"
#include "store/facade.hpp"
#include "store/packed.hpp"

namespace nonmask {
namespace {

using obs::HeartbeatSample;
using obs::Telemetry;

TEST(RssTest, PeakIsPositiveAndCurrentIsSane) {
  EXPECT_GT(obs::peak_rss_mb(), 0.0);
  // /proc may be absent on exotic platforms; when present the value is
  // positive and cannot exceed the peak by more than sampling noise.
  const double current = obs::current_rss_mb();
  EXPECT_GE(current, 0.0);
  if (current > 0.0) {
    EXPECT_LE(current, obs::peak_rss_mb() * 1.5 + 16.0);
  }
}

TEST(TelemetryTest, OffByDefault) {
  ASSERT_FALSE(Telemetry::running());
  ASSERT_FALSE(obs::Metrics::enabled());
  // While collection is off an exploring pass has no counter to feed, and
  // its meter accumulates nothing.
  EXPECT_EQ(obs::explored_states(), nullptr);
  obs::ProgressMeter meter("convergence-dfs", 100, obs::explored_states());
  meter.add(42);
  EXPECT_EQ(meter.done(), 0u);
}

// start() borrows the one metrics switch and stop() hands it back as it
// was: off after an off run, still on when the caller had turned it on.
TEST(TelemetryTest, StopRestoresTheMetricsSwitch) {
  obs::TelemetryOptions opts;
  opts.interval_ms = 1;
  Telemetry::start(opts);
  EXPECT_TRUE(obs::Metrics::enabled());
  Telemetry::stop();
  EXPECT_FALSE(obs::Metrics::enabled());

  obs::Metrics::set_enabled(true);
  Telemetry::start(opts);
  Telemetry::stop();
  EXPECT_TRUE(obs::Metrics::enabled());
  obs::Metrics::set_enabled(false);
}

// The in-memory series keeps the newest kMaxSamples heartbeats, so a
// long-lived server's sampler does not grow without bound; the final
// heartbeat stop() takes is always among them.
TEST(TelemetryTest, SeriesKeepsOnlyTheNewestSamples) {
  obs::TelemetryOptions opts;
  opts.interval_ms = 60'000;  // only sample_now() and stop() sample
  Telemetry::start(opts);
  constexpr std::size_t kExtra = 10;
  for (std::size_t i = 0; i < Telemetry::kMaxSamples + kExtra; ++i) {
    Telemetry::sample_now();
  }
  std::vector<HeartbeatSample> series = Telemetry::samples();
  ASSERT_EQ(series.size(), Telemetry::kMaxSamples);
  EXPECT_EQ(series.front().seq, kExtra);
  EXPECT_EQ(series.back().seq, Telemetry::kMaxSamples + kExtra - 1);

  const std::vector<HeartbeatSample> tail = Telemetry::samples_tail(3);
  ASSERT_EQ(tail.size(), 3u);
  EXPECT_EQ(tail.front().seq, Telemetry::kMaxSamples + kExtra - 3);
  EXPECT_EQ(tail.back().seq, Telemetry::kMaxSamples + kExtra - 1);

  Telemetry::stop();
  series = Telemetry::samples();
  ASSERT_EQ(series.size(), Telemetry::kMaxSamples);
  EXPECT_EQ(series.back().seq, Telemetry::kMaxSamples + kExtra);
}

// The key set and order of a heartbeat line are a parsing contract
// (bench_compare.py --telemetry, the dashboard smoke in check.sh). This
// golden sample uses binary-exact doubles so "%.17g" renders them short.
TEST(TelemetryTest, HeartbeatJsonSchemaGolden) {
  HeartbeatSample hb;
  hb.seq = 3;
  hb.t_ms = 600;
  hb.states_explored = 1000;
  hb.states_per_sec = 1234.5;
  hb.frontier = 77;
  hb.rss_mb = 12.5;
  hb.peak_rss_mb = 20.25;
  hb.workers = 8;
  hb.counters = {{"campaign.trials", 5},
                 {"store.arena.slab_bytes", 4096},
                 {"store.set.probes", 11}};
  obs::MeterSample meter;
  meter.label = "store-reach";
  meter.done = 1000;
  meter.total = 1296;
  meter.aux = {{"frontier", 77}};
  hb.meters.push_back(meter);
  obs::SetSample set;
  set.shards = 4;
  set.materialized = 2;
  set.entries = 1000;
  set.capacity = 2048;
  set.max_probe = 5;
  set.arena_bytes = 8192;
  set.shard_entries = {600, 400, 0, 0};
  hb.sets.push_back(set);

  EXPECT_EQ(
      obs::to_json(hb),
      "{\"seq\":3,\"t_ms\":600,\"states\":1000,\"states_per_sec\":1234.5,"
      "\"frontier\":77,\"rss_mb\":12.5,\"peak_rss_mb\":20.25,\"workers\":8,"
      "\"counters\":{\"campaign.trials\":5,\"store.arena.slab_bytes\":4096,"
      "\"store.set.probes\":11},"
      "\"meters\":[{\"label\":\"store-reach\",\"done\":1000,\"total\":1296,"
      "\"aux\":{\"frontier\":77}}],"
      "\"sets\":[{\"shards\":4,\"materialized\":2,\"entries\":1000,"
      "\"capacity\":2048,\"max_probe\":5,\"arena_bytes\":8192,"
      "\"shard_entries\":[600,400,0,0]}]}");
}

/// Concurrent writers (meter ticks + set inserts) racing the 1 ms sampler:
/// the final heartbeat must account for every unit of work, at any thread
/// count. Run under TSan in CI.
void run_sampler_race(unsigned threads) {
  const auto tr = make_dijkstra_ring(4, 6);  // 6^4 = 1296 states
  const StateSpace space(tr.design.program);
  const store::PackedLayout layout(tr.design.program);

  obs::TelemetryOptions opts;
  opts.interval_ms = 1;  // in-memory sink, aggressive sampling
  Telemetry::start(opts);
  ASSERT_TRUE(Telemetry::running());
  ASSERT_TRUE(obs::Metrics::enabled());
  ASSERT_NE(obs::explored_states(), nullptr);
  const std::uint64_t explored_before = obs::explored_states()->value();
  const std::uint64_t probes_before =
      Telemetry::sample_now().counter("store.set.probes");

  {
    store::ConcurrentPackedSet set(layout, /*shard_bits=*/4, /*seed=*/1,
                                   space.size());
    obs::ProgressMeter meter("store-reach", space.size(),
                             obs::explored_states());
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::uint64_t lo = space.size() * t / threads;
        const std::uint64_t hi = space.size() * (t + 1) / threads;
        std::vector<std::uint64_t> words(layout.words());
        State s(space.program().num_variables());
        for (std::uint64_t code = lo; code < hi; ++code) {
          space.decode_into(code, s);
          layout.pack(s, words.data());
          set.insert(words.data());
          meter.add(1);
          meter.aux("frontier", code - lo);
        }
      });
    }
    for (auto& w : workers) w.join();

    // Sets and meters are sampled while still alive: the final heartbeat
    // sees the completed run.
    Telemetry::stop();
    const std::vector<HeartbeatSample> series = Telemetry::samples();
    ASSERT_FALSE(series.empty());
    const HeartbeatSample& last = series.back();
    EXPECT_EQ(last.states_explored - explored_before, space.size());
    ASSERT_EQ(last.sets.size(), 1u);
    EXPECT_EQ(last.sets[0].entries, space.size());
    EXPECT_EQ(last.sets[0].shards, 16u);
    EXPECT_GT(last.sets[0].max_probe, 0u);
    EXPECT_GE(last.counter("store.set.probes") - probes_before, space.size());
    ASSERT_EQ(last.meters.size(), 1u);
    EXPECT_EQ(last.meters[0].done, space.size());
    for (std::size_t i = 1; i < series.size(); ++i) {
      EXPECT_GE(series[i].states_explored, series[i - 1].states_explored);
      EXPECT_GE(series[i].t_ms, series[i - 1].t_ms);
    }
  }
  EXPECT_FALSE(obs::Metrics::enabled());
}

TEST(TelemetryTest, SamplerWithOneWriter) { run_sampler_race(1); }
TEST(TelemetryTest, SamplerWithTwoWriters) { run_sampler_race(2); }
TEST(TelemetryTest, SamplerWithEightWriters) { run_sampler_race(8); }

// set_aggregate() (the run-report "store" section) samples live sets while
// other threads construct and destroy theirs — what a server does when one
// worker writes a report while another runs a falsify job with one
// short-lived set per walk. Every set must be sampled while alive (ASan
// and TSan replay this in CI), and once all are gone the aggregate counts
// every insert exactly once.
TEST(TelemetryTest, SetAggregateRacesSetLifetimes) {
  const auto tr = make_dijkstra_ring(3, 4);  // 4^3 = 64 states
  const StateSpace space(tr.design.program);
  const store::PackedLayout layout(tr.design.program);
  const std::uint64_t entries_before = Telemetry::set_aggregate().entries;

  constexpr unsigned kWriters = 4;
  constexpr unsigned kSetsPerWriter = 200;
  std::atomic<unsigned> running{kWriters};
  std::vector<std::thread> writers;
  for (unsigned t = 0; t < kWriters; ++t) {
    writers.emplace_back([&] {
      std::vector<std::uint64_t> words(layout.words());
      State s(space.program().num_variables());
      for (unsigned i = 0; i < kSetsPerWriter; ++i) {
        store::ConcurrentPackedSet set(layout, /*shard_bits=*/2, /*seed=*/1);
        for (std::uint64_t code = 0; code < space.size(); ++code) {
          space.decode_into(code, s);
          layout.pack(s, words.data());
          set.insert(words.data());
        }
      }
      running.fetch_sub(1);
    });
  }
  std::uint64_t last = entries_before;
  while (running.load() > 0) {
    const std::uint64_t entries = Telemetry::set_aggregate().entries;
    EXPECT_GE(entries, last);  // retired sets only accumulate
    last = entries;
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(Telemetry::set_aggregate().entries - entries_before,
            std::uint64_t{kWriters} * kSetsPerWriter * space.size());
}

// The accounting identity behind the store_scale dashboard: the weakly-fair
// SCC pass pushes each ¬S region state exactly once (the flags pre-pass is
// deliberately not handed the explored-states counter), so the final
// heartbeat's cumulative count equals the report's region_states.
TEST(TelemetryTest, FinalHeartbeatMatchesWeaklyFairCheck) {
  const auto tr = make_dijkstra_ring(4, 6);
  const StateSpace space(tr.design.program);
  store::StoreConfig cfg;
  cfg.threads = 2;

  obs::TelemetryOptions opts;
  opts.interval_ms = 1;
  Telemetry::start(opts);
  const std::uint64_t explored_before = obs::explored_states()->value();
  const auto report = store::check_convergence_weakly_fair_via(
      cfg, space, tr.design.S(), tr.design.T());
  Telemetry::stop();

  EXPECT_EQ(report.verdict, ConvergenceVerdict::kConverges);
  const std::vector<HeartbeatSample> series = Telemetry::samples();
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.back().states_explored - explored_before,
            report.region_states);
  EXPECT_GT(report.region_states, 0u);
}

TEST(TelemetryTest, JsonlSinkWritesOneObjectPerHeartbeat) {
  const std::string path =
      testing::TempDir() + "/nonmask_telemetry_test.jsonl";
  obs::TelemetryOptions opts;
  opts.path = path;
  opts.interval_ms = 1;
  Telemetry::start(opts);
  {
    obs::ProgressMeter meter("reach", 10);
    for (int i = 0; i < 10; ++i) {
      meter.add(1);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  Telemetry::stop();

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    const std::string seq_key = "{\"seq\":" + std::to_string(lines) + ",";
    EXPECT_EQ(line.rfind(seq_key, 0), 0u);
    ++lines;
  }
  EXPECT_EQ(lines, Telemetry::samples().size());
  EXPECT_GE(lines, 2u);  // at least one periodic + the final heartbeat
  std::remove(path.c_str());
}

TEST(TelemetryTest, DashboardHtmlIsSelfContained) {
  obs::TelemetryOptions opts;
  opts.interval_ms = 1;
  Telemetry::start(opts);
  {
    obs::ProgressMeter meter("store-reach", 1000);
    for (int i = 0; i < 5; ++i) {
      meter.add(200);
      meter.aux("frontier", static_cast<std::uint64_t>(40 * (i + 1)));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  Telemetry::stop();

  obs::DashboardSpec spec;
  spec.title = "telemetry <unit> test";
  spec.subtitle = "synthetic run";
  spec.summary = {{"verdict", "converges"}, {"states", "1000"}};
  spec.samples = Telemetry::samples();
  std::ostringstream html;
  obs::write_dashboard_html(html, spec);
  const std::string page = html.str();

  EXPECT_NE(page.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(page.find("<svg"), std::string::npos);
  EXPECT_NE(page.find("telemetry &lt;unit&gt; test"), std::string::npos);
  // Self-containment: nothing is fetched from anywhere.
  EXPECT_EQ(page.find("http://"), std::string::npos);
  EXPECT_EQ(page.find("https://"), std::string::npos);
  EXPECT_EQ(page.find("src="), std::string::npos);
  EXPECT_EQ(page.find("<link"), std::string::npos);
  EXPECT_EQ(page.find("@import"), std::string::npos);
}

}  // namespace
}  // namespace nonmask
