// Parallel campaign CLI: run a seeded trial campaign for a shipped design
// across worker threads and optionally stream per-trial records to JSONL
// for offline analysis. Results are bit-identical at any thread count (see
// parallel/campaign.hpp), so a campaign is reproducible from its design
// name, seed, and trial count alone.
//
// Usage:  parallel_campaign [design] [trials] [threads] [seed] [jsonl-path]
//   design   diffusing | chain | dijkstra | bounded | coloring  (default: diffusing)
//   trials   number of trials                    (default: 200)
//   threads  0 = NONMASK_THREADS env / hardware  (default: 0)
//   seed     master seed                         (default: 1)
//   jsonl    output path for per-trial records   (default: none)
//
// Observability flags (may be mixed with the positional arguments):
//   --trace-out=PATH    Chrome trace-event JSON of the run (per-trial spans)
//   --metrics-out=PATH  metrics-registry snapshot JSON
//   --report-out=PATH   self-describing run-report JSON
//   --dashboard-out=PATH  self-contained HTML dashboard from the telemetry
//                         heartbeat series (in-memory sampler unless
//                         NONMASK_TELEMETRY is set)
//   --threads=N         same as the positional threads argument
//
// Resilience flags (src/resilience/):
//   --checkpoint=PATH   JSONL checkpoint journal, flushed per trial
//   --resume            replay the journal's valid prefix, run the rest
//   --deadline-ms=N     per-trial watchdog deadline (0 = off)
//   --retries=N         retries for trials that throw
//   --backoff-ms=N      base backoff before retry r (doubles each retry)
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <string>
#include <vector>

#include "obs/dashboard.hpp"
#include "obs/metrics.hpp"
#include "obs/report.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "parallel/campaign.hpp"
#include "parallel/thread_pool.hpp"
#include "protocols/coloring.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/token_ring.hpp"
#include "util/rng.hpp"

using namespace nonmask;

namespace {

Design make_design(const std::string& name) {
  if (name == "diffusing") {
    return make_diffusing(RootedTree::balanced(31, 2), true).design;
  }
  if (name == "chain") {
    return make_diffusing(RootedTree::chain(32), true).design;
  }
  if (name == "dijkstra") {
    return make_dijkstra_ring(32, 33).design;
  }
  if (name == "bounded") {
    return make_token_ring_bounded(16, 15, true).design;
  }
  if (name == "coloring") {
    Rng rng(7);
    return make_coloring(UndirectedGraph::random_connected(48, 96, rng))
        .design;
  }
  std::cerr << "unknown design '" << name
            << "' (want diffusing | chain | dijkstra | bounded | coloring)\n";
  std::exit(2);
}

void print_stats(const char* label, const SampleStats& s) {
  std::cout << "  " << std::left << std::setw(7) << label << std::right
            << "  mean " << std::setw(10) << s.mean << "  stddev "
            << std::setw(10) << s.stddev << "  p50 " << std::setw(8) << s.p50
            << "  p95 " << std::setw(8) << s.p95 << "  max " << std::setw(8)
            << s.max << "  sum " << s.sum << "\n";
}

bool flag_value(const std::string& arg, const char* name, std::string* out) {
  const std::string prefix = std::string(name) + "=";
  if (arg.rfind(prefix, 0) != 0) return false;
  *out = arg.substr(prefix.size());
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  // Split --flags from the positional arguments so existing invocations
  // (tests, EXPERIMENTS.md recipes) keep working unchanged.
  std::vector<std::string> pos;
  std::string trace_out, metrics_out, report_out, dashboard_out, flag_threads;
  std::string checkpoint, deadline_ms, retries, backoff_ms;
  bool resume = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    if (arg == "--help" || arg == "-h") {
      std::cout << "usage: parallel_campaign [design] [trials] [threads] "
                   "[seed] [jsonl-path]\n"
                   "       [--threads=N] [--trace-out=PATH] "
                   "[--metrics-out=PATH] [--report-out=PATH]\n"
                   "       [--dashboard-out=PATH]\n"
                   "       [--checkpoint=PATH] [--resume] [--deadline-ms=N] "
                   "[--retries=N] [--backoff-ms=N]\n";
      return 0;
    } else if (arg == "--resume") {
      resume = true;
    } else if (flag_value(arg, "--checkpoint", &value)) {
      checkpoint = value;
    } else if (flag_value(arg, "--deadline-ms", &value)) {
      deadline_ms = value;
    } else if (flag_value(arg, "--retries", &value)) {
      retries = value;
    } else if (flag_value(arg, "--backoff-ms", &value)) {
      backoff_ms = value;
    } else if (flag_value(arg, "--threads", &value)) {
      flag_threads = value;
    } else if (flag_value(arg, "--trace-out", &value)) {
      trace_out = value;
    } else if (flag_value(arg, "--metrics-out", &value)) {
      metrics_out = value;
    } else if (flag_value(arg, "--report-out", &value)) {
      report_out = value;
    } else if (flag_value(arg, "--dashboard-out", &value)) {
      dashboard_out = value;
    } else if (arg.rfind("--", 0) == 0) {
      // Not a positional value: taken as one, a stray flag would name the
      // JSONL output file.
      std::cerr << "unknown flag '" << arg << "' (see --help)\n";
      return 2;
    } else {
      pos.push_back(arg);
    }
  }

  const std::string name = pos.size() > 0 ? pos[0] : "diffusing";
  ConvergenceExperiment config;
  config.trials =
      pos.size() > 1 ? static_cast<std::size_t>(std::atoll(pos[1].c_str()))
                     : 200;
  CampaignOptions opts;
  opts.threads =
      pos.size() > 2 ? static_cast<unsigned>(std::atoi(pos[2].c_str())) : 0;
  if (!flag_threads.empty()) {
    opts.threads = static_cast<unsigned>(std::atoi(flag_threads.c_str()));
  }
  config.seed = pos.size() > 3
                    ? static_cast<std::uint64_t>(std::atoll(pos[3].c_str()))
                    : 1;
  config.max_steps = 2'000'000;

  opts.checkpoint = checkpoint;
  opts.resume = resume;
  if (resume && checkpoint.empty()) {
    std::cerr << "--resume requires --checkpoint=PATH\n";
    return 2;
  }
  if (!deadline_ms.empty()) {
    opts.policy.deadline =
        std::chrono::milliseconds(std::atoll(deadline_ms.c_str()));
  }
  if (!retries.empty()) {
    opts.policy.max_retries =
        static_cast<std::size_t>(std::atoll(retries.c_str()));
  }
  if (!backoff_ms.empty()) {
    opts.policy.backoff =
        std::chrono::milliseconds(std::atoll(backoff_ms.c_str()));
  }
  if (!trace_out.empty()) obs::Trace::set_enabled(true);
  if (!metrics_out.empty() || !report_out.empty()) {
    obs::Metrics::set_enabled(true);
  }
  obs::Telemetry::start_from_env();
  if (!dashboard_out.empty() && !obs::Telemetry::running()) {
    obs::Telemetry::start({});
  }

  std::ofstream jsonl_file;
  if (pos.size() > 4) {
    jsonl_file.open(pos[4]);
    if (!jsonl_file) {
      std::cerr << "cannot open " << pos[4] << " for writing\n";
      return 2;
    }
    opts.jsonl = &jsonl_file;
  }

  const Design design = make_design(name);
  const unsigned threads =
      opts.threads == 0 ? default_threads() : opts.threads;
  std::cout << "campaign: " << design.name << ", " << config.trials
            << " trials, seed " << config.seed << ", " << threads
            << " thread(s)\n";

  // Constructed before the campaign: the report's clock starts here, so
  // its wall_ms times the run.
  obs::RunReport report("parallel_campaign", design.name);
  const auto results = run_campaign(design, config, opts);
  if (opts.resume) {
    std::cout << "resumed: " << results.resumed_trials
              << " trial(s) replayed from " << checkpoint << "\n";
  }
  if (results.timed_out > 0 || results.failed > 0) {
    std::cout << "degraded: " << results.timed_out << " timed out, "
              << results.failed << " failed\n";
  }
  std::cout << "converged: " << std::fixed << std::setprecision(1)
            << 100.0 * results.aggregate.converged_fraction << "% ("
            << results.aggregate.steps.count << "/" << config.trials
            << " trials)\n"
            << std::defaultfloat << std::setprecision(6);
  print_stats("steps", results.aggregate.steps);
  print_stats("rounds", results.aggregate.rounds);
  print_stats("moves", results.aggregate.moves);
  if (opts.jsonl != nullptr) {
    std::cout << config.trials << " records written to " << pos[4] << "\n";
  }

  // Final heartbeat first, so the dashboard and report see the completed
  // trial counters.
  obs::Telemetry::stop();

  if (!trace_out.empty()) {
    std::ofstream out(trace_out);
    if (!out) {
      std::cerr << "cannot open " << trace_out << " for writing\n";
      return 2;
    }
    obs::Trace::write_chrome_trace(out);
    std::cout << obs::Trace::event_count() << " trace events written to "
              << trace_out << "\n";
  }
  if (!metrics_out.empty()) {
    std::ofstream out(metrics_out);
    if (!out) {
      std::cerr << "cannot open " << metrics_out << " for writing\n";
      return 2;
    }
    out << obs::metrics_to_json() << "\n";
  }
  if (!report_out.empty()) {
    std::ofstream out(report_out);
    if (!out) {
      std::cerr << "cannot open " << report_out << " for writing\n";
      return 2;
    }
    report.add_number("trials", std::uint64_t{config.trials});
    report.add_number("seed", config.seed);
    report.add("campaign", obs::to_json(results.aggregate));
    report.write(out);
  }
  if (!dashboard_out.empty()) {
    obs::DashboardSpec spec;
    spec.title = "parallel_campaign: " + design.name;
    spec.subtitle = std::to_string(config.trials) + " trials, seed " +
                    std::to_string(config.seed) + ", " +
                    std::to_string(threads) + " thread(s)";
    spec.summary = {
        {"design", design.name},
        {"trials", std::to_string(config.trials)},
        {"seed", std::to_string(config.seed)},
        {"threads", std::to_string(threads)},
        {"resumed trials", std::to_string(results.resumed_trials)},
        {"timed out", std::to_string(results.timed_out)},
        {"failed", std::to_string(results.failed)},
    };
    spec.samples = obs::Telemetry::samples();
    obs::write_dashboard_file(dashboard_out, spec);
    std::cout << "dashboard written to " << dashboard_out << "\n";
  }
  return 0;
}
