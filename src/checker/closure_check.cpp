#include "checker/closure_check.hpp"

#include <algorithm>

#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace nonmask {

namespace {

/// One contiguous slice [begin, end) of the closure scan, stopping at the
/// first violation inside the slice with counts exactly as the serial scan
/// leaves them at that point. The serial check is a concatenation of
/// slices, the same shape as the engine's chunked reduction, so their
/// reports agree bit-for-bit.
ClosureReport scan_closure_range(const StateSpace& space,
                                 const PredicateFn& predicate,
                                 const std::vector<std::size_t>& actions,
                                 std::uint64_t begin, std::uint64_t end,
                                 State& scratch) {
  const Program& p = space.program();
  ClosureReport report;
  for (std::uint64_t code = begin; code < end; ++code) {
    space.decode_into(code, scratch);
    if (!predicate(scratch)) continue;
    ++report.states_checked;
    for (std::size_t idx : actions) {
      const Action& a = p.action(idx);
      if (!a.enabled(scratch)) continue;
      ++report.transitions_checked;
      State next = a.apply(scratch);
      if (!predicate(next)) {
        report.closed = false;
        report.violation = ClosureViolation{scratch, idx, std::move(next)};
        return report;
      }
    }
  }
  report.closed = true;
  return report;
}

}  // namespace

namespace detail {

void record_closure_metrics(const ClosureReport& report) {
  if (!obs::Metrics::enabled()) return;
  auto& registry = obs::Registry::instance();
  registry.counter("checker.closure.checks").add(1);
  registry.counter("checker.closure.states").add(report.states_checked);
  registry.counter("checker.closure.transitions")
      .add(report.transitions_checked);
}

}  // namespace detail

ClosureReport check_closed(const StateSpace& space,
                           const PredicateFn& predicate,
                           const std::vector<std::size_t>& actions) {
  obs::Span span("checker.closure");
  obs::Counter* const explored = obs::explored_states();
  State scratch(space.program().num_variables());

  // The serial scan is the in-order concatenation of slices (the same
  // property the engine's chunked reduction relies on), so slicing here
  // for the explored-states count changes nothing observable.
  constexpr std::uint64_t kSlice = 1 << 18;
  ClosureReport report;
  report.closed = true;
  for (std::uint64_t lo = 0; lo < space.size() && report.closed;
       lo += kSlice) {
    const std::uint64_t hi = std::min(space.size(), lo + kSlice);
    ClosureReport slice =
        scan_closure_range(space, predicate, actions, lo, hi, scratch);
    report.states_checked += slice.states_checked;
    report.transitions_checked += slice.transitions_checked;
    if (!slice.closed) {
      report.closed = false;
      report.violation = std::move(slice.violation);
    }
    if (explored != nullptr) explored->add(hi - lo);
  }
  detail::record_closure_metrics(report);
  return report;
}

ClosureReport check_closed(const StateSpace& space,
                           const PredicateFn& predicate) {
  return check_closed(space, predicate,
                      non_fault_actions(space.program()));
}

}  // namespace nonmask
