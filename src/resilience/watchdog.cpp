#include "resilience/watchdog.hpp"

#include <algorithm>
#include <thread>
#include <utility>

namespace nonmask {

namespace {

/// `config` with the perturb factory wrapped so every produced hook also
/// polls the wall clock and throws TrialDeadlineExceeded past `deadline`.
/// The deadline clock starts when the hook is built, i.e. per attempt.
ConvergenceExperiment with_deadline(const ConvergenceExperiment& config,
                                    std::chrono::milliseconds deadline) {
  ConvergenceExperiment guarded = config;
  const auto user = config.make_perturb;
  guarded.make_perturb = [user, deadline](const Program& p) {
    std::function<void(std::size_t, State&)> inner;
    if (user) inner = user(p);
    const auto expires = std::chrono::steady_clock::now() + deadline;
    return [inner, expires, deadline](std::size_t step, State& s) {
      if (inner) inner(step, s);
      if ((step & 127) == 0 &&
          std::chrono::steady_clock::now() >= expires) {
        throw TrialDeadlineExceeded(deadline);
      }
    };
  };
  return guarded;
}

}  // namespace

ResilientOutcome run_trial_resilient(const Design& design,
                                     const ConvergenceExperiment& config,
                                     TrialSeeds seeds,
                                     const TrialPolicy& policy) {
  const ConvergenceExperiment* cfg = &config;
  ConvergenceExperiment guarded;
  if (policy.deadline.count() > 0) {
    guarded = with_deadline(config, policy.deadline);
    cfg = &guarded;
  }

  ResilientOutcome result;
  for (std::size_t attempt = 0;; ++attempt) {
    result.attempts = attempt + 1;
    try {
      result.outcome = run_trial(design, *cfg, seeds);
      result.error.clear();
      return result;
    } catch (const TrialDeadlineExceeded& e) {
      result.outcome = TrialOutcome{};
      result.outcome.timed_out = true;
      result.error = e.what();
      return result;
    } catch (const std::exception& e) {
      result.error = e.what();
    } catch (...) {
      result.error = "unknown exception";
    }
    if (attempt >= policy.max_retries) {
      result.outcome = TrialOutcome{};
      result.outcome.failed = true;
      return result;
    }
    if (policy.backoff.count() > 0) {
      const auto shift = std::min<std::size_t>(attempt, 10);
      std::this_thread::sleep_for(policy.backoff * (1u << shift));
    }
  }
}

}  // namespace nonmask
