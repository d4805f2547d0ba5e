// Parallel experiment campaigns: run the trials of a ConvergenceExperiment
// across a thread pool, stream per-trial records to JSONL, and survive the
// campaign's own failures.
//
// Determinism: the per-trial seed pairs are derived up front from the
// master seed with derive_trial_seeds — the exact stream run_experiment
// consumes — and each trial is a pure function of its seeds. Results are
// therefore bit-identical to run_experiment at any thread count, and the
// JSONL stream (flushed in trial order) is byte-identical too.
//
// Resilience (src/resilience/): a per-trial watchdog deadline records
// runaway trials as timed_out instead of hanging the pool; trials that
// throw are retried with backoff and recorded as failed once retries are
// exhausted; a JSONL checkpoint journal plus `resume` replays completed
// trials bit-identically and re-runs only the remainder, so a killed
// campaign's merged stream is byte-identical to an uninterrupted run.
//
// Concurrency contract: the config's factories (make_daemon, make_start,
// make_perturb) and the design's predicates are invoked concurrently and
// must be thread-safe. All shipped protocols and daemons qualify: each
// trial gets its own daemon and Rng, and the predicates are pure.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "engine/experiment.hpp"
#include "resilience/journal.hpp"
#include "resilience/watchdog.hpp"

namespace nonmask {

struct CampaignOptions {
  /// Worker threads; 0 = NONMASK_THREADS env override, else hardware
  /// concurrency. 1 = run trials inline, serially.
  unsigned threads = 0;
  /// Optional JSONL sink: one record per trial, streamed in trial order as
  /// trials complete. The stream must outlive run_campaign.
  std::ostream* jsonl = nullptr;
  /// Per-trial watchdog deadline and retry-with-backoff policy. The
  /// default (no deadline, no retries) is byte-identical to the original
  /// runner.
  TrialPolicy policy;
  /// Path of a JSONL checkpoint journal. Completed records are written in
  /// trial order and flushed line-by-line, so a killed campaign leaves a
  /// valid prefix (plus at most one torn line). Empty = no journal.
  std::string checkpoint;
  /// Replay the valid prefix of `checkpoint` (validated against the design
  /// name and derived seeds) instead of re-running those trials; the
  /// journal is rewritten so the final file is byte-identical to an
  /// uninterrupted run's.
  bool resume = false;
};

struct CampaignResults {
  /// Aggregate statistics, bit-identical to run_experiment(design, config)
  /// when no trial timed out or failed.
  ConvergenceResults aggregate;
  /// Every trial's record, in trial order.
  std::vector<TrialRecord> trials;
  std::size_t resumed_trials = 0;  ///< replayed from the checkpoint journal
  std::size_t timed_out = 0;       ///< trials that hit the watchdog deadline
  std::size_t failed = 0;          ///< trials that exhausted their retries
};

/// Run `config.trials` trials of `design` across `opts.threads` workers.
CampaignResults run_campaign(const Design& design,
                             const ConvergenceExperiment& config,
                             const CampaignOptions& opts = {});

}  // namespace nonmask
