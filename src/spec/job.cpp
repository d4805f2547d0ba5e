#include "spec/job.hpp"

#include <chrono>
#include <memory>
#include <sstream>
#include <utility>
#include <vector>

#include "checker/containment.hpp"
#include "checker/falsify.hpp"
#include "checker/state_space.hpp"
#include "obs/report.hpp"
#include "parallel/campaign.hpp"
#include "resilience/adversary.hpp"
#include "sched/daemons.hpp"
#include "spec/spec.hpp"
#include "store/facade.hpp"
#include "synth/certify_design.hpp"
#include "synth/synthesize.hpp"
#include "util/json.hpp"

namespace nonmask::spec {

namespace {

store::StoreConfig store_config(const JobDecl& job) {
  store::StoreConfig config;
  if (job.state_budget > 0) config.budget = job.state_budget;
  config.threads = job.threads;
  return config;
}

std::string provenance_json(const CompiledSpec& spec) {
  return "{\"name\":" + util::json_quote(spec.spec_name) +
         ",\"schema\":" + util::json_quote(spec.schema) +
         ",\"content_hash\":" + util::json_quote(spec.content_hash) + "}";
}

/// Common preamble: provenance first, then the engine the job ran under.
void add_backend(obs::RunReport& report, const store::StoreConfig& config) {
  report.add_text("store_backend", store::to_string(config.backend));
  report.add_number("state_budget", config.budget);
}

JobResult finish(obs::RunReport& report, bool ok, std::string summary) {
  JobResult result;
  result.report_json = report.to_json();
  result.ok = ok;
  result.summary = std::move(summary);
  return result;
}

// Each runner constructs its RunReport before any work: the report's clock
// starts in its constructor, so `wall_ms` then times the whole job.

JobResult run_check(const CompiledSpec& spec, const JobDecl& job) {
  const Design& design = spec.design;
  obs::RunReport report("spec_check", design.name);
  const store::StoreConfig config = store_config(job);
  const StateSpace space(design.program, config.budget);

  report.add("spec", provenance_json(spec));
  add_backend(report, config);

  const ToleranceReport tol =
      store::verify_tolerance_via(config, space, design, job.weakly_fair);

  report.add("closure_S", obs::to_json(tol.closure_S));
  report.add("closure_T", obs::to_json(tol.closure_T));
  report.add("convergence", obs::to_json(tol.convergence));

  std::ostringstream summary;
  summary << "check: S " << (tol.closure_S.closed ? "closed" : "NOT closed")
          << ", T " << (tol.closure_T.closed ? "closed" : "NOT closed")
          << ", convergence " << to_string(tol.convergence.verdict) << " ("
          << tol.convergence.states_in_T << " states in T)";
  return finish(report, tol.tolerant(), summary.str());
}

JobResult run_falsify(const CompiledSpec& spec, const JobDecl& job) {
  const Design& design = spec.design;
  obs::RunReport report("spec_falsify", design.name);
  FalsifyOptions opts;
  opts.walks = job.walks;
  opts.max_walk_length = job.walk_length;
  opts.seed = job.seed;
  const FalsifyResult result = falsify_convergence(design, opts);

  report.add("spec", provenance_json(spec));
  report.add_number("walks", job.walks);
  report.add_number("walk_length", job.walk_length);
  report.add_number("seed", job.seed);
  {
    util::JsonValue f = util::jobj();
    f.add("violated", util::jbool(result.violated));
    f.add("walks_run", util::jint(static_cast<std::int64_t>(result.walks_run)));
    f.add("steps_taken",
          util::jint(static_cast<std::int64_t>(result.steps_taken)));
    f.add("cycle_length",
          util::jint(result.cycle ? static_cast<std::int64_t>(
                                        result.cycle->size())
                                  : 0));
    f.add("deadlock", util::jbool(result.deadlock.has_value()));
    std::string json = util::dump_json(f);
    while (!json.empty() && (json.back() == '\n')) json.pop_back();
    report.add("falsify", json);
  }

  std::ostringstream summary;
  summary << "falsify: " << (result.violated ? "VIOLATED" : "no violation")
          << " after " << result.walks_run << " walks, "
          << result.steps_taken << " steps";
  return finish(report, !result.violated, summary.str());
}

JobResult run_campaign_job(const CompiledSpec& spec, const JobDecl& job,
                           const JobOptions& jopts) {
  const Design& design = spec.design;
  obs::RunReport report("spec_campaign", design.name);

  ConvergenceExperiment config;
  config.trials = job.trials;
  config.seed = job.seed;
  config.max_steps = job.max_steps;
  if (job.daemon == "round-robin") {
    config.make_daemon = [](std::uint64_t) {
      return DaemonPtr(new RoundRobinDaemon());
    };
  } else if (job.daemon == "first-enabled") {
    config.make_daemon = [](std::uint64_t) {
      return DaemonPtr(new FirstEnabledDaemon());
    };
  }
  if (!spec.schedule.strikes().empty() ||
      !spec.schedule.persistent_actors().empty()) {
    // The hook borrows the program it is bound to; campaigns hand it the
    // design's own program, which outlives the run.
    const FaultSchedule schedule = spec.schedule;
    const std::uint64_t fault_seed = spec.fault_seed;
    config.make_perturb = [schedule, fault_seed](const Program& p) {
      return schedule.hook(p, fault_seed);
    };
  }

  CampaignOptions opts;
  opts.threads = job.threads;
  opts.checkpoint = jopts.checkpoint;
  opts.resume = jopts.resume;
  opts.jsonl = jopts.jsonl;
  if (job.deadline_ms > 0) {
    opts.policy.deadline = std::chrono::milliseconds(job.deadline_ms);
  }
  opts.policy.max_retries = job.retries;
  opts.policy.backoff = std::chrono::milliseconds(job.backoff_ms);

  const CampaignResults results = run_campaign(design, config, opts);

  // Section for section the shape examples/parallel_campaign.cpp writes,
  // with the provenance block in front: CI diffs the two documents after
  // deleting tool/started_at/wall_ms/metrics/spec.
  report.add("spec", provenance_json(spec));
  report.add_number("trials", std::uint64_t{config.trials});
  report.add_number("seed", config.seed);
  report.add("campaign", obs::to_json(results.aggregate));

  const bool ok = results.failed == 0 && results.timed_out == 0;
  std::ostringstream summary;
  summary << "campaign: " << config.trials << " trials, "
          << results.aggregate.steps.count << " converged";
  if (results.resumed_trials > 0) {
    summary << ", " << results.resumed_trials << " resumed";
  }
  if (results.timed_out > 0 || results.failed > 0) {
    summary << ", " << results.timed_out << " timed out, " << results.failed
            << " failed";
  }
  return finish(report, ok, summary.str());
}

JobResult run_containment(const CompiledSpec& spec, const JobDecl& job) {
  const Design& design = spec.design;
  obs::RunReport report("spec_containment", design.name);
  const std::vector<int>& placement = job.byzantine;
  if (placement.empty()) {
    throw SpecError("$.job.byzantine",
                    "containment job requires a Byzantine placement",
                    job.line);
  }

  AdversaryOptions leg_opts;
  leg_opts.seed = job.seed;
  const ContainmentFixpoint fixpoint =
      containment_fixpoint(design.program, legitimate_state(design, leg_opts));

  const store::StoreConfig config = store_config(job);
  const ContainmentReport rep =
      measure_containment(design.program, placement, fixpoint, config);

  report.add("spec", provenance_json(spec));
  add_backend(report, config);
  report.add("containment", containment_to_json(design.program, rep));

  std::ostringstream summary;
  summary << "containment: radius " << rep.radius
          << (rep.contained ? " < horizon " : " reaches horizon ")
          << rep.horizon << " -> "
          << (rep.contained ? "CONTAINED" : "not contained") << " ("
          << rep.reachable_states << " composed states)";
  return finish(report, rep.contained, summary.str());
}

JobResult run_synthesize(const CompiledSpec& spec, const JobDecl& job) {
  const Design& design = spec.design;
  obs::RunReport report("spec_synthesize", design.name);

  // The synthesizer takes the candidate triple: the program *without* its
  // convergence actions (those are what it is asked to produce).
  CandidateTriple candidate;
  candidate.program = Program(design.program.name());
  for (const auto& v : design.program.variables()) {
    candidate.program.add_variable(v);
  }
  std::size_t stripped = 0;
  for (const auto& a : design.program.actions()) {
    if (a.kind() == ActionKind::kConvergence) {
      ++stripped;
      continue;
    }
    candidate.program.add_action(a);
  }
  candidate.invariant = design.invariant;
  candidate.fault_span = design.fault_span;
  candidate.S_override = design.S_override;

  synth::SynthesisOptions opts;
  opts.seed = job.seed;
  opts.max_candidates = job.max_candidates;
  opts.store = store_config(job);
  const synth::SynthesisResult result = synth::synthesize(candidate, opts);

  report.add("spec", provenance_json(spec));
  add_backend(report, opts.store);
  report.add_number("stripped_convergence_actions", std::uint64_t{stripped});
  {
    util::JsonValue s = util::jobj();
    s.add("success", util::jbool(result.success));
    if (!result.success) s.add("failure", util::jstr(result.failure));
    util::JsonValue actions = util::jarr();
    for (const auto& desc : result.winner_descriptions) {
      actions.push(util::jstr(desc));
    }
    s.add("winner_actions", std::move(actions));
    s.add("evaluated",
          util::jint(static_cast<std::int64_t>(result.stats.evaluated)));
    s.add("certification",
          util::jstr(synth::to_string(result.certification.method)));
    std::string json = util::dump_json(s);
    while (!json.empty() && json.back() == '\n') json.pop_back();
    report.add("synthesis", json);
  }

  std::ostringstream summary;
  if (result.success) {
    summary << "synthesize: success, " << result.winner_actions.size()
            << " action(s), certificate "
            << synth::to_string(result.certification.method);
  } else {
    summary << "synthesize: FAILED (" << result.failure << ")";
  }
  return finish(report, result.success, summary.str());
}

JobResult run_certify(const CompiledSpec& spec, const JobDecl& job) {
  const Design& design = spec.design;
  obs::RunReport report("spec_certify", design.name);
  const store::StoreConfig config = store_config(job);
  const StateSpace space(design.program, config.budget);

  const synth::CertificationResult result =
      synth::certify_design(design, space);

  report.add("spec", provenance_json(spec));
  add_backend(report, config);
  {
    util::JsonValue c = util::jobj();
    c.add("method", util::jstr(synth::to_string(result.method)));
    c.add("theorem_certified", util::jbool(result.theorem_certified()));
    util::JsonValue attempts = util::jarr();
    for (const auto& a : result.attempts) attempts.push(util::jstr(a));
    c.add("attempts", std::move(attempts));
    util::JsonValue problems = util::jarr();
    for (const auto& p : result.audit_problems) problems.push(util::jstr(p));
    c.add("audit_problems", std::move(problems));
    std::string json = util::dump_json(c);
    while (!json.empty() && json.back() == '\n') json.pop_back();
    report.add("certification", json);
  }

  bool ok = result.theorem_certified();
  std::string extra;
  if (!ok && result.method == synth::CertMethod::kExhaustive) {
    // Certificate of last resort: the exhaustive checker's verdict.
    const ToleranceReport tol =
        store::verify_tolerance_via(config, space, design);
    ok = tol.tolerant();
    report.add("exhaustive_convergence", obs::to_json(tol.convergence));
    extra = ok ? " (exhaustive verdict: tolerant)"
               : " (exhaustive verdict: NOT tolerant)";
  }
  std::ostringstream summary;
  summary << "certify: " << synth::to_string(result.method) << extra;
  return finish(report, ok, summary.str());
}

}  // namespace

JobResult run_spec_job(const CompiledSpec& spec, const JobOptions& opts) {
  JobDecl job = spec.job;  // default-constructed "check" when absent
  if (job.type == "check") return run_check(spec, job);
  if (job.type == "falsify") return run_falsify(spec, job);
  if (job.type == "campaign") return run_campaign_job(spec, job, opts);
  if (job.type == "containment") return run_containment(spec, job);
  if (job.type == "synthesize") return run_synthesize(spec, job);
  if (job.type == "certify") return run_certify(spec, job);
  throw SpecError("$.job.type", "unknown job type '" + job.type + "'",
                  job.line);
}

}  // namespace nonmask::spec
