#include "engine/simulator.hpp"

#include <algorithm>
#include <stdexcept>
#include <unordered_set>

#include "obs/metrics.hpp"
#include "util/logging.hpp"

namespace nonmask {

namespace {

/// Fire a set of actions simultaneously: every action reads the old state;
/// declared writes are merged (later actions win on overlap, which the
/// contract checker flags when it matters).
State fire_simultaneously(const Program& p, const State& s,
                          const std::vector<std::size_t>& chosen) {
  if (chosen.size() == 1) {
    return p.action(chosen.front()).apply(s);
  }
  State next = s;
  for (std::size_t idx : chosen) {
    const Action& a = p.action(idx);
    const State local = a.apply(s);
    for (VarId w : a.writes()) next.set(w, local.get(w));
  }
  return next;
}

}  // namespace

RunResult Simulator::run(State start, const RunOptions& opts) {
  const Program& p = *program_;
  RunResult result;
  State s = std::move(start);

  // Round accounting: the set of actions enabled at round start; a round
  // completes once each has fired or been observed disabled.
  std::unordered_set<std::size_t> round_pending;
  auto begin_round = [&](const std::vector<std::size_t>& enabled) {
    round_pending.clear();
    round_pending.insert(enabled.begin(), enabled.end());
  };

  bool round_initialized = false;

  for (std::size_t step = 0; step < opts.max_steps; ++step) {
    if (opts.perturb) opts.perturb(step, s);

    if (opts.track_violations != nullptr) {
      result.trace.record_violations(opts.track_violations->violation_count(s));
    }
    if (opts.stop_when && opts.stop_when(s)) {
      result.converged = true;
      break;
    }

    const auto enabled = p.enabled_actions(s);
    if (enabled.empty()) {
      result.deadlocked = true;
      break;
    }
    if (!round_initialized) {
      begin_round(enabled);
      round_initialized = true;
    }

    const auto chosen = daemon_->select(p, s, enabled);
    if (chosen.empty()) {
      throw std::logic_error("Daemon returned an empty selection");
    }
    if (opts.check_contracts) {
      for (std::size_t idx : chosen) {
        const auto illegal = p.action(idx).contract_violations(s);
        if (!illegal.empty()) {
          throw std::logic_error("write-set contract violated by action '" +
                                 p.action(idx).name() + "'");
        }
      }
    }

    s = fire_simultaneously(p, s, chosen);
    ++result.steps;
    result.moves += chosen.size();

    if (opts.record_trace || opts.record_snapshots) {
      result.trace.record_step(chosen);
      if (opts.record_snapshots) result.trace.record_snapshot(s);
    }

    // Round bookkeeping: fired actions and now-disabled actions retire.
    for (std::size_t idx : chosen) round_pending.erase(idx);
    if (!round_pending.empty()) {
      for (auto it = round_pending.begin(); it != round_pending.end();) {
        if (!p.action(*it).enabled(s)) {
          it = round_pending.erase(it);
        } else {
          ++it;
        }
      }
    }
    if (round_pending.empty()) {
      ++result.rounds;
      begin_round(p.enabled_actions(s));
    }
  }

  if (!result.converged && !result.deadlocked) {
    // Either max_steps was hit, or the loop exited via stop_when on the
    // final iteration; distinguish by re-testing.
    if (opts.stop_when && opts.stop_when(s)) {
      result.converged = true;
    } else {
      result.exhausted = true;
    }
  }
  result.final_state = std::move(s);
  if (obs::Metrics::enabled()) {
    auto& registry = obs::Registry::instance();
    registry.counter("engine.sim.runs").add(1);
    registry.counter("engine.sim.steps").add(result.steps);
    registry.counter("engine.sim.moves").add(result.moves);
    registry.counter("engine.sim.rounds").add(result.rounds);
  }
  return result;
}

RunResult converge(const Design& design, State start, Daemon& daemon,
                   RunOptions opts) {
  if (!opts.stop_when) opts.stop_when = design.S();
  Simulator sim(design.program, daemon);
  return sim.run(std::move(start), opts);
}

}  // namespace nonmask
