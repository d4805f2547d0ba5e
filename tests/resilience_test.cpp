// Tests for src/resilience/: adversarial fault-placement search, the
// checkpoint journal, campaign resume, and the watchdog / retry trial
// policy.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/builder.hpp"
#include "core/predicate.hpp"
#include "engine/experiment.hpp"
#include "obs/metrics.hpp"
#include "parallel/campaign.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/token_ring.hpp"
#include "resilience/adversary.hpp"
#include "resilience/journal.hpp"
#include "resilience/watchdog.hpp"

namespace nonmask {
namespace {

std::uint64_t median_of(std::vector<std::uint64_t> xs) {
  std::sort(xs.begin(), xs.end());
  return xs[xs.size() / 2];
}

// ------------------------------------------------------------ adversary

void expect_beats_baseline(const Design& design, std::size_t budget_k) {
  AdversaryOptions opts;
  opts.budget_k = budget_k;
  opts.seed = 7;
  const AdversaryResult result = find_worst_placement(design, opts);
  ASSERT_TRUE(result.exhaustive);
  EXPECT_FALSE(result.divergence_found);  // the protocols are stabilizing
  ASSERT_FALSE(result.placement.targets.empty());
  EXPECT_GT(result.evaluations, 0u);

  const auto baseline = random_placement_baseline(design, opts, 64);
  ASSERT_EQ(baseline.size(), 64u);
  // The adversary's placement admits a schedule strictly worse than the
  // median random placement's observed convergence time.
  EXPECT_GT(result.worst_case_steps, median_of(baseline));

  // The worst trace is a real ¬S → S path: starts outside S, ends inside.
  const auto S = design.S();
  ASSERT_GE(result.worst_trace.size(), 2u);
  EXPECT_FALSE(S(result.worst_trace.front()));
  EXPECT_TRUE(S(result.worst_trace.back()));
  EXPECT_EQ(result.worst_trace.size(),
            static_cast<std::size_t>(result.worst_case_steps) + 1);
}

TEST(AdversaryTest, BeatsRandomBaselineOnDijkstraRing) {
  expect_beats_baseline(make_dijkstra_ring(5, 6).design, 2);
}

TEST(AdversaryTest, BeatsRandomBaselineOnDiffusingTree) {
  expect_beats_baseline(make_diffusing(RootedTree::balanced(7, 2), true).design,
                        3);
}

TEST(AdversaryTest, DeterministicPerSeed) {
  const Design design = make_dijkstra_ring(5, 6).design;
  AdversaryOptions opts;
  opts.budget_k = 2;
  opts.seed = 42;
  const AdversaryResult a = find_worst_placement(design, opts);
  const AdversaryResult b = find_worst_placement(design, opts);
  EXPECT_EQ(a.placement.targets, b.placement.targets);
  EXPECT_EQ(a.placement.values, b.placement.values);
  EXPECT_EQ(a.worst_case_steps, b.worst_case_steps);
  EXPECT_EQ(a.evaluations, b.evaluations);
  EXPECT_EQ(a.observed.steps, b.observed.steps);
  EXPECT_EQ(worst_trace_json(design, a), worst_trace_json(design, b));

  const auto base_a = random_placement_baseline(design, opts, 32);
  const auto base_b = random_placement_baseline(design, opts, 32);
  EXPECT_EQ(base_a, base_b);
}

TEST(AdversaryTest, ForcedHillClimbIsDeterministicAndEffective) {
  const Design design = make_dijkstra_ring(5, 6).design;
  AdversaryOptions opts;
  opts.budget_k = 2;
  opts.seed = 11;
  opts.force_hill_climb = true;
  opts.restarts = 4;
  opts.iterations = 24;
  const AdversaryResult a = find_worst_placement(design, opts);
  const AdversaryResult b = find_worst_placement(design, opts);
  EXPECT_FALSE(a.exhaustive);
  EXPECT_EQ(a.placement.targets, b.placement.targets);
  EXPECT_EQ(a.placement.values, b.placement.values);
  EXPECT_EQ(a.worst_case_steps, b.worst_case_steps);
  EXPECT_EQ(a.evaluations, b.evaluations);
  // restarts * (1 + iterations) scored placements.
  EXPECT_EQ(a.evaluations, 4u * 25u);
  EXPECT_GT(a.worst_case_steps, median_of(
      random_placement_baseline(design, opts, 64)));
}

TEST(AdversaryTest, LegitimateStateSatisfiesS) {
  for (const Design& design :
       {make_dijkstra_ring(5, 6).design,
        make_diffusing(RootedTree::balanced(7, 2), true).design}) {
    const State s = legitimate_state(design, AdversaryOptions{});
    EXPECT_TRUE(design.S()(s));
  }
}

TEST(AdversaryTest, WorstTraceJsonIsSelfDescribing) {
  const Design design = make_dijkstra_ring(5, 6).design;
  AdversaryOptions opts;
  opts.budget_k = 1;
  const AdversaryResult result = find_worst_placement(design, opts);
  const std::string json = worst_trace_json(design, result);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  for (const char* key :
       {"\"design\":", "\"mode\":\"exhaustive-greedy\"", "\"worst_case_steps\":",
        "\"placement\":", "\"targets\":", "\"variables\":", "\"worst_trace\":",
        "\"observed\":"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key;
  }
  // The placement round-trips into a one-strike schedule.
  const FaultSchedule sched = result.placement.schedule();
  ASSERT_EQ(sched.size(), 1u);
  EXPECT_EQ(sched.strikes().front().step, result.placement.at_step);
}

// --------------------------------------------------------------- journal

TEST(JournalTest, JsonlRoundTrip) {
  TrialRecord record;
  record.trial = 17;
  record.seeds = {0x1234'5678'9abc'def0ULL, 42};
  record.outcome.converged = true;
  record.outcome.steps = 321;
  record.outcome.rounds = 12;
  record.outcome.moves = 300;
  record.attempts = 3;
  record.error = "boom \"quoted\"\nline";
  const std::string line = to_jsonl("my-design", record);
  std::string design_name;
  const auto parsed = parse_trial_jsonl(line, &design_name);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(design_name, "my-design");
  EXPECT_EQ(parsed->trial, record.trial);
  EXPECT_EQ(parsed->seeds.daemon, record.seeds.daemon);
  EXPECT_EQ(parsed->seeds.start, record.seeds.start);
  EXPECT_EQ(parsed->outcome.converged, record.outcome.converged);
  EXPECT_EQ(parsed->outcome.steps, record.outcome.steps);
  EXPECT_EQ(parsed->outcome.rounds, record.outcome.rounds);
  EXPECT_EQ(parsed->outcome.moves, record.outcome.moves);
  EXPECT_EQ(parsed->attempts, record.attempts);
  EXPECT_EQ(parsed->error, record.error);
  // Re-rendering the parsed record is byte-identical.
  EXPECT_EQ(to_jsonl(design_name, *parsed), line);
}

TEST(JournalTest, TornAndMalformedLinesAreRejected) {
  EXPECT_FALSE(parse_trial_jsonl("").has_value());
  EXPECT_FALSE(parse_trial_jsonl("{\"design\":\"dif").has_value());
  EXPECT_FALSE(parse_trial_jsonl("not json at all").has_value());
  EXPECT_FALSE(parse_trial_jsonl("{\"design\":\"d\"}").has_value());
}

TEST(JournalTest, PrefixStopsAtFirstMismatch) {
  const std::string path = testing::TempDir() + "journal_prefix_test.jsonl";
  const auto seeds = derive_trial_seeds(5, 4);
  TrialRecord r0, r1;
  r0.trial = 0;
  r0.seeds = seeds[0];
  r0.outcome.converged = true;
  r1.trial = 1;
  r1.seeds = {999, 999};  // wrong seeds: prefix must stop before this line
  {
    std::ofstream out(path, std::ios::trunc);
    out << to_jsonl("d", r0) << '\n' << to_jsonl("d", r1) << '\n';
  }
  const JournalPrefix prefix = load_journal_prefix(path, "d", seeds);
  EXPECT_EQ(prefix.records.size(), 1u);
  ASSERT_EQ(prefix.lines.size(), 1u);
  EXPECT_EQ(prefix.lines[0], to_jsonl("d", r0));
  // Wrong design name: empty prefix. Missing file: empty prefix.
  EXPECT_TRUE(load_journal_prefix(path, "other", seeds).records.empty());
  EXPECT_TRUE(
      load_journal_prefix(path + ".missing", "d", seeds).records.empty());
  std::remove(path.c_str());
}

// -------------------------------------------------------------- resume

TEST(CampaignResumeTest, KilledCampaignResumesByteIdentically) {
  const Design design =
      make_diffusing(RootedTree::balanced(7, 2), true).design;
  ConvergenceExperiment config;
  config.trials = 16;
  config.seed = 9;

  const std::string checkpoint =
      testing::TempDir() + "campaign_resume_test.jsonl";

  // Uninterrupted run: the reference byte stream.
  std::ostringstream reference;
  {
    CampaignOptions opts;
    opts.threads = 1;
    opts.jsonl = &reference;
    opts.checkpoint = checkpoint;
    run_campaign(design, config, opts);
  }
  std::string journal_bytes;
  {
    std::ifstream in(checkpoint, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    journal_bytes = buf.str();
  }
  EXPECT_EQ(journal_bytes, reference.str());

  // Simulate a kill after 6 trials: a valid 6-line prefix plus a torn,
  // half-written 7th line.
  std::vector<std::string> lines;
  {
    std::istringstream in(reference.str());
    std::string line;
    while (std::getline(in, line)) lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), config.trials);

  for (unsigned threads : {1u, 2u, 8u}) {
    SCOPED_TRACE(threads);
    {
      std::ofstream out(checkpoint, std::ios::trunc | std::ios::binary);
      for (std::size_t i = 0; i < 6; ++i) out << lines[i] << '\n';
      out << "{\"design\":\"dif";  // torn tail, no newline
    }
    std::ostringstream resumed;
    CampaignOptions opts;
    opts.threads = threads;
    opts.jsonl = &resumed;
    opts.checkpoint = checkpoint;
    opts.resume = true;
    const CampaignResults results = run_campaign(design, config, opts);
    EXPECT_EQ(results.resumed_trials, 6u);
    // Merged stream (replayed prefix + fresh remainder) is byte-identical
    // to the uninterrupted run, and so is the rewritten journal.
    EXPECT_EQ(resumed.str(), reference.str());
    std::ifstream in(checkpoint, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_EQ(buf.str(), reference.str());
  }
  std::remove(checkpoint.c_str());
}

TEST(CampaignResumeTest, ResumeWithCompleteJournalRerunsNothing) {
  const Design design = make_dijkstra_ring(4, 5).design;
  ConvergenceExperiment config;
  config.trials = 8;
  config.seed = 2;
  const std::string checkpoint =
      testing::TempDir() + "campaign_complete_test.jsonl";
  std::ostringstream first;
  CampaignOptions opts;
  opts.threads = 2;
  opts.jsonl = &first;
  opts.checkpoint = checkpoint;
  run_campaign(design, config, opts);

  std::ostringstream second;
  opts.jsonl = &second;
  opts.resume = true;
  const CampaignResults results = run_campaign(design, config, opts);
  EXPECT_EQ(results.resumed_trials, config.trials);
  EXPECT_EQ(second.str(), first.str());
  std::remove(checkpoint.c_str());
}

// ------------------------------------------------------ watchdog / retry

/// A design that never converges: S is identically false and one closure
/// action is always enabled, so only the watchdog can end a trial early.
Design make_spinner() {
  ProgramBuilder b("spinner");
  const VarId spin = b.boolean("spin", 0);
  b.closure(
      "toggle", true_predicate(),
      [spin](State& s) { s.set(spin, 1 - s.get(spin)); }, {spin}, {spin}, 0);
  Design design;
  design.name = "spinner";
  design.program = b.build();
  design.S_override = false_predicate();
  design.stabilizing = false;
  return design;
}

TEST(WatchdogTest, DeadlineRecordsTimeoutInsteadOfHanging) {
  const Design design = make_spinner();
  ConvergenceExperiment config;
  config.trials = 1;
  config.max_steps = 1'000'000'000;  // effectively unbounded
  TrialPolicy policy;
  policy.deadline = std::chrono::milliseconds(50);
  const ResilientOutcome r =
      run_trial_resilient(design, config, {1, 2}, policy);
  EXPECT_TRUE(r.outcome.timed_out);
  EXPECT_FALSE(r.outcome.converged);
  EXPECT_FALSE(r.outcome.failed);
  EXPECT_EQ(r.attempts, 1u);  // deadline hits are not retried
  EXPECT_NE(r.error.find("watchdog deadline"), std::string::npos);
}

TEST(WatchdogTest, CampaignTimeoutDoesNotStallOtherWorkers) {
  const Design design = make_spinner();
  ConvergenceExperiment config;
  config.trials = 6;
  config.seed = 4;
  config.max_steps = 1'000'000'000;
  CampaignOptions opts;
  opts.threads = 2;
  opts.policy.deadline = std::chrono::milliseconds(30);
  std::ostringstream out;
  opts.jsonl = &out;
  const CampaignResults results = run_campaign(design, config, opts);
  EXPECT_EQ(results.timed_out, config.trials);
  EXPECT_DOUBLE_EQ(results.aggregate.converged_fraction, 0.0);
  // Every trial got its own record, in order.
  std::istringstream lines(out.str());
  std::string line;
  std::size_t n = 0;
  while (std::getline(lines, line)) {
    EXPECT_NE(line.find("\"timed_out\":true"), std::string::npos);
    ++n;
  }
  EXPECT_EQ(n, config.trials);
}

// A timed-out trial is counted once, as it finishes: no watchdog count and
// no end-of-run total beside the campaign's own trial counters.
TEST(WatchdogTest, CampaignCountsEachTimeoutOnce) {
  const Design design = make_spinner();
  ConvergenceExperiment config;
  config.trials = 4;
  config.seed = 5;
  config.max_steps = 1'000'000'000;
  CampaignOptions opts;
  opts.threads = 2;
  opts.policy.deadline = std::chrono::milliseconds(20);
  auto& registry = obs::Registry::instance();
  obs::Metrics::set_enabled(true);
  registry.reset();
  const CampaignResults results = run_campaign(design, config, opts);
  const obs::RegistrySnapshot snap = registry.snapshot();
  registry.reset();
  obs::Metrics::set_enabled(false);

  ASSERT_EQ(results.timed_out, config.trials);
  std::vector<std::string> timeout_counters;
  std::uint64_t trials = 0;
  for (const auto& [name, value] : snap.counters) {
    if (name.find("time") != std::string_view::npos) {
      timeout_counters.emplace_back(name);
      EXPECT_EQ(value, config.trials) << name;
    }
    if (name == "campaign.trials") trials = value;
    EXPECT_NE(name, "resilience.trial_errors");
  }
  EXPECT_EQ(timeout_counters,
            std::vector<std::string>{"campaign.trials_timed_out"});
  EXPECT_EQ(trials, config.trials);
}

TEST(WatchdogTest, PolicylessTrialMatchesRunTrialExactly) {
  const Design design = make_dijkstra_ring(4, 5).design;
  ConvergenceExperiment config;
  config.seed = 6;
  const auto seeds = derive_trial_seeds(config.seed, 3);
  for (const TrialSeeds& s : seeds) {
    const TrialOutcome plain = run_trial(design, config, s);
    const ResilientOutcome resilient =
        run_trial_resilient(design, config, s, {});
    EXPECT_EQ(resilient.outcome.converged, plain.converged);
    EXPECT_EQ(resilient.outcome.steps, plain.steps);
    EXPECT_EQ(resilient.outcome.rounds, plain.rounds);
    EXPECT_EQ(resilient.outcome.moves, plain.moves);
    EXPECT_EQ(resilient.attempts, 1u);
    EXPECT_TRUE(resilient.error.empty());
  }
}

TEST(RetryTest, FlakyTrialSucceedsAfterRetries) {
  const Design design = make_dijkstra_ring(4, 5).design;
  auto failures = std::make_shared<std::atomic<int>>(2);
  ConvergenceExperiment config;
  config.make_start = [failures](const Program& p, Rng& rng) {
    if (failures->fetch_sub(1) > 0) {
      throw std::runtime_error("transient start failure");
    }
    State s(p.num_variables());
    for (std::uint32_t i = 0; i < p.num_variables(); ++i) {
      const auto& spec = p.variable(VarId(i));
      s.set(VarId(i), static_cast<Value>(rng.range(spec.lo, spec.hi)));
    }
    return s;
  };
  TrialPolicy policy;
  policy.max_retries = 3;
  const ResilientOutcome r =
      run_trial_resilient(design, config, {3, 4}, policy);
  EXPECT_EQ(r.attempts, 3u);  // two failures + one success
  EXPECT_TRUE(r.outcome.converged);
  EXPECT_FALSE(r.outcome.failed);
}

TEST(RetryTest, ExhaustedRetriesRecordFailure) {
  const Design design = make_dijkstra_ring(4, 5).design;
  ConvergenceExperiment config;
  config.make_start = [](const Program&, Rng&) -> State {
    throw std::runtime_error("permanent start failure");
  };
  TrialPolicy policy;
  policy.max_retries = 2;
  const ResilientOutcome r =
      run_trial_resilient(design, config, {5, 6}, policy);
  EXPECT_EQ(r.attempts, 3u);  // initial + 2 retries
  EXPECT_TRUE(r.outcome.failed);
  EXPECT_FALSE(r.outcome.converged);
  EXPECT_NE(r.error.find("permanent start failure"), std::string::npos);
}

TEST(RetryTest, CampaignRecordsFailedTrialsWithoutThrowing) {
  const Design design = make_dijkstra_ring(4, 5).design;
  ConvergenceExperiment config;
  config.trials = 4;
  config.make_start = [](const Program&, Rng&) -> State {
    throw std::runtime_error("always fails");
  };
  CampaignOptions opts;
  opts.threads = 2;
  std::ostringstream out;
  opts.jsonl = &out;
  const CampaignResults results = run_campaign(design, config, opts);
  EXPECT_EQ(results.failed, config.trials);
  EXPECT_NE(out.str().find("\"failed\":true"), std::string::npos);
  EXPECT_NE(out.str().find("always fails"), std::string::npos);
}

}  // namespace
}  // namespace nonmask
