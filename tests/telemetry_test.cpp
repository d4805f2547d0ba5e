// Live telemetry: RSS helpers, the heartbeat JSONL schema, off-by-default
// cost contracts, the metrics switch telemetry borrows, the bounded
// in-memory series, the background sampler under concurrent writers, the
// live frontier gauge, and the final-heartbeat == run-report accounting
// identity.
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "checker/closure_check.hpp"
#include "checker/state_space.hpp"
#include "core/builder.hpp"
#include "obs/dashboard.hpp"
#include "obs/metrics.hpp"
#include "obs/rss.hpp"
#include "obs/telemetry.hpp"
#include "protocols/token_ring.hpp"
#include "store/facade.hpp"

extern char** environ;

namespace nonmask {
namespace {

using obs::HeartbeatSample;
using obs::Telemetry;

TEST(RssTest, PeakIsPositiveAndCurrentIsSane) {
  const double peak = obs::peak_rss_mb();
  EXPECT_GT(peak, 0.0);
  // /proc may be absent on exotic platforms; when present the value is
  // positive and cannot exceed the peak by more than sampling noise.
  const double current = obs::current_rss_mb();
  EXPECT_GE(current, 0.0);
  if (current > 0.0) {
    EXPECT_LE(current, peak * 1.5 + 16.0);
  }
  // RssTest.SpawnedPeakIsItsOwn runs this test in a spawned copy of the
  // binary and reads this line.
  std::printf("peak_rss_mb=%.2f\n", peak);
}

/// The peak RSS that a spawned copy of this test binary reports for itself
/// (RssTest.PeakIsPositiveAndCurrentIsSane prints it); -1 on failure.
double spawned_peak_mb() {
  int out[2];
  if (::pipe(out) != 0) {
    ADD_FAILURE() << "pipe failed";
    return -1;
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, out[0]);
  posix_spawn_file_actions_addclose(&actions, out[1]);
  const std::string self = std::filesystem::read_symlink("/proc/self/exe");
  std::string filter =
      "--gtest_filter=RssTest.PeakIsPositiveAndCurrentIsSane";
  char* argv[] = {const_cast<char*>(self.c_str()), filter.data(), nullptr};
  pid_t pid = 0;
  const int spawned =
      ::posix_spawn(&pid, self.c_str(), &actions, nullptr, argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(out[1]);
  std::string child_out;
  char buf[4096];
  for (ssize_t n; (n = ::read(out[0], buf, sizeof(buf))) > 0;) {
    child_out.append(buf, static_cast<std::size_t>(n));
  }
  ::close(out[0]);
  int status = 0;
  const std::size_t at = child_out.find("peak_rss_mb=");
  if (spawned != 0 || ::waitpid(pid, &status, 0) != pid ||
      !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
      at == std::string::npos) {
    ADD_FAILURE() << "spawned test failed: " << child_out;
    return -1;
  }
  return std::strtod(child_out.c_str() + at + 12, nullptr);
}

// A spawned process's peak is its own, not the high-water mark of the
// process that spawned it: getrusage's ru_maxrss carries the parent's peak
// across exec, VmHWM does not. The child's reading beside 256 MB of
// touched ballast is compared with its reading without it, because the
// binary's own peak is large under sanitizers (~200 MB with ASan).
TEST(RssTest, SpawnedPeakIsItsOwn) {
  const double alone = spawned_peak_mb();
  ASSERT_GT(alone, 0.0);
  constexpr std::size_t kTouchedMb = 256;
  const std::vector<char> ballast(kTouchedMb << 20, 1);  // every page written
  ASSERT_GE(obs::peak_rss_mb(), static_cast<double>(kTouchedMb));
  const double beside = spawned_peak_mb();
  ASSERT_GT(beside, 0.0);
  EXPECT_LT(beside - alone, static_cast<double>(kTouchedMb) / 2)
      << "alone " << alone << " MB, beside the ballast " << beside << " MB";
  EXPECT_EQ(ballast.back(), 1);
}

TEST(TelemetryTest, OffByDefault) {
  ASSERT_FALSE(Telemetry::running());
  ASSERT_FALSE(obs::Metrics::enabled());
  // While collection is off an exploring pass has no counter to feed, and
  // a pass run then adds nothing to it.
  EXPECT_EQ(obs::explored_states(), nullptr);
  const auto tr = make_dijkstra_ring(3, 4);
  const StateSpace space(tr.design.program);
  obs::Metrics::set_enabled(true);
  const std::uint64_t before = obs::explored_states()->value();
  obs::Metrics::set_enabled(false);
  EXPECT_TRUE(check_closed(space, tr.design.T()).closed);
  obs::Metrics::set_enabled(true);
  EXPECT_EQ(obs::explored_states()->value(), before);
  obs::Metrics::set_enabled(false);
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

  EXPECT_EQ(
      obs::to_json(hb),
      "{\"seq\":3,\"t_ms\":600,\"states\":1000,\"states_per_sec\":1234.5,"
      "\"frontier\":77,\"rss_mb\":12.5,\"peak_rss_mb\":20.25,\"workers\":8,"
      "\"counters\":{\"campaign.trials\":5,\"store.arena.slab_bytes\":4096,"
      "\"store.set.probes\":11}}");
}

/// Concurrent explored-state ticks and frontier updates racing the 1 ms
/// sampler: the final heartbeat must account for every unit of work, at
/// any thread count, and show no frontier once every writer's share is
/// gone. The sampler reads only the registry. Run under TSan in CI.
void run_sampler_race(unsigned threads) {
  const auto tr = make_dijkstra_ring(4, 6);  // 6^4 = 1296 states
  const StateSpace space(tr.design.program);

  obs::TelemetryOptions opts;
  opts.interval_ms = 1;  // in-memory sink, aggressive sampling
  Telemetry::start(opts);
  ASSERT_TRUE(Telemetry::running());
  ASSERT_TRUE(obs::Metrics::enabled());
  ASSERT_NE(obs::explored_states(), nullptr);
  const std::uint64_t explored_before = obs::explored_states()->value();

  {
    obs::Counter* const explored = obs::explored_states();
    std::vector<std::thread> workers;
    for (unsigned t = 0; t < threads; ++t) {
      workers.emplace_back([&, t] {
        const std::uint64_t lo = space.size() * t / threads;
        const std::uint64_t hi = space.size() * (t + 1) / threads;
        State s(space.program().num_variables());
        obs::FrontierShare frontier;
        for (std::uint64_t code = lo; code < hi; ++code) {
          space.decode_into(code, s);
          explored->add(1);
          frontier.set(hi - code);
        }
      });
    }
    for (auto& w : workers) w.join();
  }

  Telemetry::stop();
  const std::vector<HeartbeatSample> series = Telemetry::samples();
  ASSERT_FALSE(series.empty());
  EXPECT_EQ(series.back().states_explored - explored_before, space.size());
  EXPECT_EQ(series.back().frontier, 0u);
  for (std::size_t i = 1; i < series.size(); ++i) {
    EXPECT_GE(series[i].states_explored, series[i - 1].states_explored);
    EXPECT_GE(series[i].t_ms, series[i - 1].t_ms);
  }
  EXPECT_FALSE(obs::Metrics::enabled());
}

TEST(TelemetryTest, SamplerWithOneWriter) { run_sampler_race(1); }
TEST(TelemetryTest, SamplerWithTwoWriters) { run_sampler_race(2); }
TEST(TelemetryTest, SamplerWithEightWriters) { run_sampler_race(8); }

// The heartbeat's `frontier` is the frontier_live() gauge: each BFS pass
// adds its live level while it runs and takes it back when it ends, so
// concurrent passes add up and a finished pass contributes 0.
TEST(TelemetryTest, FrontierIsTheLiveGauge) {
  obs::TelemetryOptions opts;
  opts.interval_ms = 60'000;  // only sample_now() and stop() sample
  Telemetry::start(opts);
  const auto live = [] {
    return static_cast<std::uint64_t>(obs::frontier_live().value());
  };
  ASSERT_EQ(live(), 0u);
  {
    obs::FrontierShare a;
    obs::FrontierShare b;
    a.set(30);
    b.set(12);
    EXPECT_EQ(Telemetry::sample_now().frontier, 42u);
    a.set(5);
    EXPECT_EQ(Telemetry::sample_now().frontier, 17u);
  }
  EXPECT_EQ(Telemetry::sample_now().frontier, 0u);

  // A binary tree: from x = 0 the two actions reach x in [0, 62] in BFS
  // levels of 1, 2, 4, ..., 32 states (x = 63 stays unreached, so the pass
  // also expands its widest level). The first guard samples a heartbeat at
  // every expansion, so it sees each level the pass has published.
  ProgramBuilder builder("tree");
  const VarId x = builder.var("x", 0, 63);
  std::uint64_t widest = 0;
  bool heartbeat_is_gauge = true;
  builder.closure(
      "left",
      [&, x](const State& s) {
        const std::uint64_t beat = Telemetry::sample_now().frontier;
        heartbeat_is_gauge = heartbeat_is_gauge && beat == live();
        widest = std::max(widest, beat);
        return s.get(x) <= 30;
      },
      [x](State& s) { s.set(x, 2 * s.get(x) + 1); }, {x}, {x});
  builder.closure(
      "right", [x](const State& s) { return s.get(x) <= 30; },
      [x](State& s) { s.set(x, 2 * s.get(x) + 2); }, {x}, {x});
  const Program program = builder.build();
  const StateSpace space(program);
  store::StoreConfig cfg;
  cfg.threads = 1;
  const StateSet reached = store::compute_reachable_via(
      cfg, space, [x](const State& s) { return s.get(x) == 0; }, {0, 1});
  EXPECT_EQ(reached.size(), 63u);
  EXPECT_TRUE(heartbeat_is_gauge);
  EXPECT_EQ(widest, 32u);
  EXPECT_EQ(live(), 0u);

  Telemetry::stop();
  EXPECT_EQ(Telemetry::samples().back().frontier, 0u);
}

// The accounting identity behind the store_scale dashboard: the weakly-fair
// SCC pass pushes each ¬S region state exactly once (the flags pre-pass
// deliberately does not feed the explored-states counter), so the final
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
  for (int i = 0; i < 10; ++i) {
    obs::explored_states()->add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
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
    obs::FrontierShare frontier;
    for (int i = 0; i < 5; ++i) {
      obs::explored_states()->add(200);
      frontier.set(static_cast<std::uint64_t>(40 * (i + 1)));
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
