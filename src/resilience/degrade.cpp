#include "resilience/degrade.hpp"

#include "obs/metrics.hpp"
#include "store/facade.hpp"
#include "util/json.hpp"

namespace nonmask {

ResilientVerification verify_resilient(const Design& design,
                                       const DegradeOptions& opts) {
  ResilientVerification v;
  v.state_budget = opts.state_budget;
  try {
    store::StoreConfig config;
    config.budget = opts.state_budget;
    StateSpace space(design.program, config.budget);
    v.requested_states = space.size();
    v.tolerance = store::verify_tolerance_via(config, space, design);
    v.exhaustive = true;
    return v;
  } catch (const StateSpaceTooLarge& e) {
    v.requested_states = e.requested();
    v.state_budget = e.budget();
  }
  v.degraded = true;
  if (obs::Metrics::enabled()) {
    obs::Registry::instance().counter("resilience.degraded_sweeps").add(1);
  }
  ConvergenceExperiment config;
  config.trials = opts.sample_trials;
  config.seed = opts.seed;
  config.max_steps = opts.max_steps;
  // Default make_start: uniformly random in-domain states — samples the
  // whole domain product, which contains any fault-span T.
  v.sampled = run_experiment(design, config);
  v.sampled_trials = opts.sample_trials;
  return v;
}

std::string to_json(const ResilientVerification& v) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("exhaustive");
  w.value(v.exhaustive);
  w.key("degraded");
  w.value(v.degraded);
  w.key("ok");
  w.value(v.ok());
  w.key("requested_states");
  w.value(v.requested_states);
  w.key("state_budget");
  w.value(v.state_budget);
  if (v.exhaustive) {
    w.key("S_closed");
    w.value(v.tolerance.closure_S.closed);
    w.key("T_closed");
    w.value(v.tolerance.closure_T.closed);
    w.key("convergence");
    w.raw(obs::to_json(v.tolerance.convergence));
  }
  if (v.degraded) {
    w.key("sampled_trials");
    w.value(static_cast<std::uint64_t>(v.sampled_trials));
    w.key("sampled");
    w.raw(obs::to_json(v.sampled));
  }
  w.end_object();
  return out;
}

void record_verification(obs::RunReport& report,
                         const ResilientVerification& v) {
  report.add("verification", to_json(v));
  if (v.degraded) {
    std::string out;
    util::JsonWriter w(&out);
    w.begin_object();
    w.key("reason");
    w.value("StateSpaceTooLarge");
    w.key("requested_states");
    w.value(v.requested_states);
    w.key("state_budget");
    w.value(v.state_budget);
    w.key("fallback");
    w.value("sampled-convergence");
    w.key("sampled_trials");
    w.value(static_cast<std::uint64_t>(v.sampled_trials));
    w.end_object();
    report.add("degradation", out);
  }
}

}  // namespace nonmask
