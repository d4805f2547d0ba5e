// Tests for the parallel campaign subsystem: the thread pool primitive, the
// campaign runner, and logging thread-safety. The checker engine's
// parallel-vs-serial equivalence lives in store_equivalence_test.cpp.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "engine/experiment.hpp"
#include "obs/telemetry.hpp"
#include "parallel/campaign.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/coloring.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/token_ring.hpp"
#include "util/logging.hpp"

namespace nonmask {
namespace {

// ---------------------------------------------------------------- pool

TEST(ThreadPoolTest, ParallelForCoversEveryIndexOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for_chunked(pool, 0, 1000, 7,
                       [&](std::size_t, std::uint64_t lo, std::uint64_t hi,
                           unsigned) {
                         for (std::uint64_t i = lo; i < hi; ++i) ++hits[i];
                       });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, ChunkNumberingMatchesRangeOrder) {
  ThreadPool pool(4);
  std::vector<std::uint64_t> lo_of_chunk(10, ~std::uint64_t{0});
  parallel_for_chunked(pool, 0, 100, 10,
                       [&](std::size_t chunk, std::uint64_t lo, std::uint64_t,
                           unsigned) { lo_of_chunk[chunk] = lo; });
  for (std::size_t c = 0; c < lo_of_chunk.size(); ++c) {
    EXPECT_EQ(lo_of_chunk[c], c * 10);
  }
}

TEST(ThreadPoolTest, EmptyRangeAndOversizedGrain) {
  ThreadPool pool(2);
  int calls = 0;
  parallel_for_chunked(pool, 5, 5, 10,
                       [&](std::size_t, std::uint64_t, std::uint64_t,
                           unsigned) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for_chunked(pool, 0, 3, 100,
                       [&](std::size_t chunk, std::uint64_t lo,
                           std::uint64_t hi, unsigned) {
                         ++calls;
                         EXPECT_EQ(chunk, 0u);
                         EXPECT_EQ(lo, 0u);
                         EXPECT_EQ(hi, 3u);
                       });
  EXPECT_EQ(calls, 1);
}

TEST(ThreadPoolTest, PropagatesTaskException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      parallel_for_chunked(pool, 0, 100, 1,
                           [&](std::size_t chunk, std::uint64_t,
                               std::uint64_t, unsigned) {
                             if (chunk == 42) throw std::runtime_error("boom");
                           }),
      std::runtime_error);
}

// Every chunk throws, chunk 0 last in time: the caller still sees chunk
// 0's exception, as an in-order run would raise it, whatever the
// scheduling.
TEST(ThreadPoolTest, RethrowsTheLowestChunksException) {
  ThreadPool pool(4);
  try {
    parallel_for_chunked(
        pool, 0, 64, 1,
        [&](std::size_t chunk, std::uint64_t, std::uint64_t, unsigned) {
          if (chunk == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(50));
          }
          throw std::runtime_error(std::to_string(chunk));
        });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "0");
  }
}

// wait_idle returns only once a finished task's captures are destroyed, so
// the caller may release whatever they reference.
TEST(ThreadPoolTest, WaitIdleReturnsAfterTaskCapturesAreDestroyed) {
  struct SlowToDestroy {
    explicit SlowToDestroy(std::atomic<bool>& flag) : destroyed(flag) {}
    ~SlowToDestroy() {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      destroyed = true;
    }
    std::atomic<bool>& destroyed;
  };
  std::atomic<bool> destroyed{false};
  ThreadPool pool(2);
  // The queued task holds the only reference to the capture.
  pool.submit(
      [capture = std::make_shared<SlowToDestroy>(destroyed)](unsigned) {});
  pool.wait_idle();
  EXPECT_TRUE(destroyed.load());
}

TEST(ThreadPoolTest, WorkerIndicesStayInRange) {
  ThreadPool pool(3);
  std::atomic<bool> ok{true};
  parallel_for_chunked(pool, 0, 200, 1,
                       [&](std::size_t, std::uint64_t, std::uint64_t,
                           unsigned worker) {
                         if (worker >= pool.size()) ok = false;
                       });
  EXPECT_TRUE(ok.load());
}

// Workers start on the first submit: work that parallel_for_chunked runs
// inline (one chunk, or a one-worker pool) never starts a thread.
TEST(ThreadPoolTest, InlineWorkStartsNoThread) {
  const obs::Gauge& live = obs::workers_live();
  const double before = live.value();
  {
    ThreadPool pool(4);
    const auto caller = std::this_thread::get_id();
    parallel_for_chunked(pool, 0, 10, 100,
                         [&](std::size_t, std::uint64_t, std::uint64_t,
                             unsigned worker) {
                           EXPECT_EQ(worker, 0u);
                           EXPECT_EQ(std::this_thread::get_id(), caller);
                         });
    EXPECT_EQ(live.value(), before);
    ThreadPool serial(1);
    parallel_for_chunked(serial, 0, 1000, 10,
                         [](std::size_t, std::uint64_t, std::uint64_t,
                            unsigned) {});
    EXPECT_EQ(live.value(), before);
    parallel_for_chunked(pool, 0, 1000, 10,
                         [](std::size_t, std::uint64_t, std::uint64_t,
                            unsigned) {});
    EXPECT_EQ(live.value(), before + 4);
  }
  EXPECT_EQ(live.value(), before);
}

TEST(ThreadPoolTest, EnvOverrideControlsDefaultThreads) {
  setenv("NONMASK_THREADS", "3", 1);
  EXPECT_EQ(default_threads(), 3u);
  unsetenv("NONMASK_THREADS");
  EXPECT_GE(default_threads(), 1u);
}

// ------------------------------------------------------------- campaign

void expect_same_stats(const SampleStats& a, const SampleStats& b) {
  EXPECT_EQ(a.count, b.count);
  EXPECT_DOUBLE_EQ(a.sum, b.sum);
  EXPECT_DOUBLE_EQ(a.mean, b.mean);
  EXPECT_DOUBLE_EQ(a.stddev, b.stddev);
  EXPECT_DOUBLE_EQ(a.min, b.min);
  EXPECT_DOUBLE_EQ(a.max, b.max);
  EXPECT_DOUBLE_EQ(a.p50, b.p50);
  EXPECT_DOUBLE_EQ(a.p95, b.p95);
  EXPECT_DOUBLE_EQ(a.p99, b.p99);
}

void expect_same_results(const ConvergenceResults& a,
                         const ConvergenceResults& b) {
  EXPECT_DOUBLE_EQ(a.converged_fraction, b.converged_fraction);
  expect_same_stats(a.steps, b.steps);
  expect_same_stats(a.rounds, b.rounds);
  expect_same_stats(a.moves, b.moves);
}

TEST(CampaignTest, MatchesRunExperimentAcrossProtocolsAndThreadCounts) {
  struct Case {
    std::string name;
    Design design;
  };
  std::vector<Case> cases;
  cases.push_back(
      {"diffusing", make_diffusing(RootedTree::balanced(7, 2), true).design});
  cases.push_back({"dijkstra-ring", make_dijkstra_ring(5, 6).design});
  cases.push_back(
      {"bounded-ring", make_token_ring_bounded(4, 3, true).design});
  cases.push_back(
      {"coloring", make_coloring(UndirectedGraph::cycle(6)).design});
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    ConvergenceExperiment config;
    config.trials = 24;
    config.seed = 5;
    config.max_steps = 200'000;
    const auto serial = run_experiment(c.design, config);
    for (unsigned threads : {1u, 2u, 8u}) {
      CampaignOptions opts;
      opts.threads = threads;
      const auto campaign = run_campaign(c.design, config, opts);
      expect_same_results(serial, campaign.aggregate);
    }
  }
}

TEST(CampaignTest, SeedDerivationMatchesMasterStream) {
  Rng master(9);
  const auto seeds = derive_trial_seeds(9, 3);
  ASSERT_EQ(seeds.size(), 3u);
  for (const auto& s : seeds) {
    EXPECT_EQ(s.daemon, master());
    EXPECT_EQ(s.start, master());
  }
}

TEST(CampaignTest, JsonlIsStreamedInTrialOrderAndThreadInvariant) {
  const auto dd = make_diffusing(RootedTree::chain(5), true);
  ConvergenceExperiment config;
  config.trials = 16;
  config.seed = 3;

  auto render = [&](unsigned threads) {
    std::ostringstream out;
    CampaignOptions opts;
    opts.threads = threads;
    opts.jsonl = &out;
    run_campaign(dd.design, config, opts);
    return out.str();
  };
  const std::string serial = render(1);
  // One line per trial, in trial order.
  std::istringstream lines(serial);
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"trial\":" + std::to_string(n)),
              std::string::npos);
    EXPECT_NE(line.find("\"design\":\""), std::string::npos);
    EXPECT_NE(line.find("\"steps\":"), std::string::npos);
    ++n;
  }
  EXPECT_EQ(n, config.trials);
  // Byte-identical at any thread count.
  EXPECT_EQ(render(2), serial);
  EXPECT_EQ(render(8), serial);
}

TEST(CampaignTest, RecordsCarrySeedsAndOutcomes) {
  const auto dd = make_diffusing(RootedTree::chain(4), true);
  ConvergenceExperiment config;
  config.trials = 8;
  config.seed = 21;
  CampaignOptions opts;
  opts.threads = 4;
  const auto campaign = run_campaign(dd.design, config, opts);
  ASSERT_EQ(campaign.trials.size(), 8u);
  const auto seeds = derive_trial_seeds(config.seed, config.trials);
  for (std::size_t i = 0; i < campaign.trials.size(); ++i) {
    EXPECT_EQ(campaign.trials[i].trial, i);
    EXPECT_EQ(campaign.trials[i].seeds.daemon, seeds[i].daemon);
    EXPECT_EQ(campaign.trials[i].seeds.start, seeds[i].start);
    EXPECT_TRUE(campaign.trials[i].outcome.converged);
  }
}

// ------------------------------------------------------ logging safety

TEST(ParallelLoggingTest, ConcurrentWritersNeverInterleaveMidLine) {
  std::ostringstream sink;
  Log::set_sink(&sink);
  Log::set_level(LogLevel::kInfo);
  {
    ThreadPool pool(8);
    parallel_for_chunked(pool, 0, 400, 1,
                         [](std::size_t chunk, std::uint64_t, std::uint64_t,
                            unsigned) {
                           NONMASK_INFO() << "line-" << chunk << "-end";
                         });
  }
  Log::set_level(LogLevel::kOff);
  Log::set_sink(nullptr);

  std::istringstream lines(sink.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_EQ(line.find("[INFO ] line-"), 0u) << line;
    EXPECT_EQ(line.rfind("-end"), line.size() - 4) << line;
    ++n;
  }
  EXPECT_EQ(n, 400u);
}

}  // namespace
}  // namespace nonmask
