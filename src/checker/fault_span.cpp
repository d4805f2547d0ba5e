#include "checker/fault_span.hpp"

#include <deque>

#include "checker/convergence_check.hpp"
#include "core/candidate.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace nonmask {

PredicateFn StateSet::as_predicate() const {
  auto members = std::make_shared<std::vector<std::uint8_t>>(members_);
  const StateSpace* space = space_;
  return [members, space](const State& s) {
    return (*members)[space->encode(s)] != 0;
  };
}

namespace detail {

void expand_reachable(const StateSpace& space,
                      const std::vector<std::size_t>& actions,
                      const FaultSpanOptions& opts, std::uint64_t code,
                      State& scratch, State& next,
                      std::vector<std::uint64_t>& out) {
  const Program& p = space.program();
  out.clear();
  space.decode_into(code, scratch);
  for (std::size_t idx : actions) {
    const Action& a = p.action(idx);
    const bool fire =
        a.kind() == ActionKind::kFault && !opts.respect_fault_guards
            ? true
            : a.enabled(scratch);
    if (!fire) continue;
    a.apply_into(scratch, next);
    out.push_back(space.encode(next));
  }
}

}  // namespace detail

StateSet compute_reachable(const StateSpace& space, const PredicateFn& start,
                           const std::vector<std::size_t>& actions,
                           const FaultSpanOptions& opts) {
  obs::Span span("checker.reach");
  const Program& p = space.program();
  StateSet set(space);
  const std::uint64_t cap =
      opts.max_states == 0 ? space.size() : opts.max_states;
  obs::Counter* const explored = obs::explored_states();
  std::uint64_t counted = 0;
  obs::FrontierShare live_frontier;

  std::deque<std::uint64_t> frontier;
  State s(p.num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    if (start(s)) {
      set.insert_code(code);
      frontier.push_back(code);
    }
  }

  State next(p.num_variables());
  std::vector<std::uint64_t> succs;
  std::uint64_t expanded = 0;
  while (!frontier.empty() && set.size() < cap) {
    const std::uint64_t code = frontier.front();
    frontier.pop_front();
    detail::expand_reachable(space, actions, opts, code, s, next, succs);
    for (std::uint64_t succ : succs) {
      if (!set.contains_code(succ)) {
        set.insert_code(succ);
        frontier.push_back(succ);
      }
    }
    if (((++expanded) & 0x3FF) == 0) {  // batch the live bookkeeping
      live_frontier.set(frontier.size());
      if (explored != nullptr) explored->add(set.size() - counted);
      counted = set.size();
    }
  }
  if (explored != nullptr) explored->add(set.size() - counted);
  if (obs::Metrics::enabled()) {
    auto& registry = obs::Registry::instance();
    registry.counter("checker.reach.expanded").add(expanded);
    registry.counter("checker.reach.states").add(set.size());
  }
  return set;
}

StateSet compute_fault_span(const StateSpace& space, const PredicateFn& S,
                            const std::vector<std::size_t>& fault_actions,
                            const FaultSpanOptions& opts) {
  std::vector<std::size_t> actions = non_fault_actions(space.program());
  actions.insert(actions.end(), fault_actions.begin(), fault_actions.end());
  return compute_reachable(space, S, actions, opts);
}

FaultClassReport verify_against_fault_class(
    const StateSpace& space, const Design& design,
    const std::vector<std::size_t>& fault_actions, bool weakly_fair) {
  FaultClassReport report;
  const PredicateFn S = design.S();
  const PredicateFn T = design.fault_span;
  const auto span = compute_fault_span(space, S, fault_actions);
  report.induced_span_size = span.size();

  report.span_within_declared_T = true;
  State s(space.program().num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    if (!span.contains_code(code)) continue;
    space.decode_into(code, s);
    if (!T(s)) {
      report.span_within_declared_T = false;
      break;
    }
  }

  const PredicateFn span_pred = span.as_predicate();
  const auto conv = weakly_fair
                        ? check_convergence_weakly_fair(space, S, span_pred)
                        : check_convergence(space, S, span_pred);
  report.converges_from_span =
      conv.verdict == ConvergenceVerdict::kConverges;
  return report;
}

}  // namespace nonmask
