#include "parallel/campaign.hpp"

#include <fstream>
#include <mutex>
#include <ostream>
#include <stdexcept>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "parallel/thread_pool.hpp"

namespace nonmask {

namespace {

/// Flushes completed trial records (pre-rendered JSONL lines) in trial
/// order: each completion is buffered until every earlier trial has been
/// written. Two sinks: the caller's stream, and the checkpoint journal —
/// the journal is flushed after every line so a kill loses at most the
/// torn tail of one record.
class JsonlStreamer {
 public:
  JsonlStreamer(std::ostream* sink, std::ostream* journal,
                const std::vector<std::string>* lines)
      : sink_(sink), journal_(journal), lines_(lines) {
    if (sink_ != nullptr || journal_ != nullptr) {
      done_.resize(lines->size(), 0);
    }
  }

  void on_complete(std::size_t trial) {
    if (sink_ == nullptr && journal_ == nullptr) return;
    std::lock_guard<std::mutex> lock(mutex_);
    done_[trial] = 1;
    while (cursor_ < done_.size() && done_[cursor_] != 0) {
      const std::string& line = (*lines_)[cursor_];
      if (sink_ != nullptr) *sink_ << line << '\n';
      if (journal_ != nullptr) {
        *journal_ << line << '\n';
        journal_->flush();
      }
      ++cursor_;
    }
  }

 private:
  std::ostream* sink_;
  std::ostream* journal_;
  const std::vector<std::string>* lines_;
  std::mutex mutex_;
  std::vector<std::uint8_t> done_;
  std::size_t cursor_ = 0;
};

}  // namespace

CampaignResults run_campaign(const Design& design,
                             const ConvergenceExperiment& config,
                             const CampaignOptions& opts) {
  CampaignResults results;
  results.trials.resize(config.trials);
  const auto seeds = derive_trial_seeds(config.seed, config.trials);
  for (std::size_t i = 0; i < config.trials; ++i) {
    results.trials[i].trial = i;
    results.trials[i].seeds = seeds[i];
  }

  // Resume: adopt the journal's valid prefix (records and verbatim lines).
  std::vector<std::string> lines(config.trials);
  std::size_t completed = 0;
  if (opts.resume && !opts.checkpoint.empty()) {
    const JournalPrefix prefix =
        load_journal_prefix(opts.checkpoint, design.name, seeds);
    completed = prefix.records.size();
    for (std::size_t i = 0; i < completed; ++i) {
      results.trials[i] = prefix.records[i];
      lines[i] = prefix.lines[i];
    }
  }
  results.resumed_trials = completed;

  // The journal is rewritten from scratch: replayed lines first (dropping
  // any torn tail the crashed run left), fresh records appended after.
  std::ofstream journal;
  if (!opts.checkpoint.empty()) {
    journal.open(opts.checkpoint, std::ios::trunc);
    if (!journal) {
      throw std::runtime_error("run_campaign: cannot open checkpoint journal " +
                               opts.checkpoint);
    }
  }

  JsonlStreamer streamer(opts.jsonl, journal.is_open() ? &journal : nullptr,
                         &lines);
  obs::Span campaign_span("campaign.run");
  obs::Histogram& trial_us =
      obs::Registry::instance().histogram("campaign.trial_us");
  for (std::size_t i = 0; i < completed; ++i) streamer.on_complete(i);

  const auto timed_trial = [&](std::size_t trial) {
    obs::Span span("campaign.trial", &trial_us);
    const ResilientOutcome r =
        run_trial_resilient(design, config, seeds[trial], opts.policy);
    TrialRecord& record = results.trials[trial];
    record.outcome = r.outcome;
    record.attempts = r.attempts;
    record.error = r.error;
    span.end();
    // Each trial is counted once, as it finishes (resumed ones only in the
    // end-of-run total below); the counters bind on the first use while on.
    if (obs::Metrics::enabled()) {
      static obs::Counter& trials =
          obs::Registry::instance().counter("campaign.trials");
      static obs::Counter& retries =
          obs::Registry::instance().counter("campaign.trial_retries");
      static obs::Counter& timed_out =
          obs::Registry::instance().counter("campaign.trials_timed_out");
      trials.add(1);
      retries.add(r.attempts - 1);
      if (r.outcome.timed_out) timed_out.add(1);
    }
    lines[trial] = to_jsonl(design.name, record);
    streamer.on_complete(trial);
  };

  // Grain-1 dynamic schedule; with one worker or one trial left, the
  // trials run inline in order and no thread starts.
  ThreadPool pool(opts.threads);
  parallel_for_each(pool, config.trials - completed,
                    [&](std::size_t i, unsigned) {
                      timed_trial(completed + i);
                    });

  // Aggregate exactly as run_experiment does: converged trials in trial
  // order.
  std::vector<double> steps, rounds, moves;
  std::size_t converged = 0;
  for (const TrialRecord& r : results.trials) {
    if (r.outcome.timed_out) ++results.timed_out;
    if (r.outcome.failed) ++results.failed;
    if (!r.outcome.converged) continue;
    ++converged;
    steps.push_back(static_cast<double>(r.outcome.steps));
    rounds.push_back(static_cast<double>(r.outcome.rounds));
    moves.push_back(static_cast<double>(r.outcome.moves));
  }
  results.aggregate.converged_fraction =
      config.trials == 0
          ? 0.0
          : static_cast<double>(converged) / static_cast<double>(config.trials);
  results.aggregate.steps = summarize(std::move(steps));
  results.aggregate.rounds = summarize(std::move(rounds));
  results.aggregate.moves = summarize(std::move(moves));
  if (obs::Metrics::enabled()) {
    auto& registry = obs::Registry::instance();
    registry.counter("campaign.trials_converged").add(converged);
    registry.counter("campaign.trials_resumed").add(results.resumed_trials);
    registry.counter("campaign.trials_failed").add(results.failed);
  }
  return results;
}

}  // namespace nonmask
