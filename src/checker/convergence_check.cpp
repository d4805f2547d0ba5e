#include "checker/convergence_check.hpp"

#include <algorithm>

#include "checker/convergence_core.hpp"
#include "checker/scc_core.hpp"
#include "core/candidate.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"

namespace nonmask {

const char* to_string(ConvergenceVerdict v) noexcept {
  switch (v) {
    case ConvergenceVerdict::kConverges: return "converges";
    case ConvergenceVerdict::kViolated: return "violated";
    case ConvergenceVerdict::kUnknown: return "unknown";
  }
  return "?";
}

ProgramSuccessors::ProgramSuccessors(const StateSpace& space,
                                     std::vector<std::size_t> actions)
    : space_(&space),
      codes_(space, std::move(actions)),
      scratch_(space.program().num_variables()) {}

std::size_t ProgramSuccessors::successors(std::uint64_t code,
                                          std::vector<std::uint64_t>& out) {
  out.clear();
  space_->decode_into(code, scratch_);
  codes_.for_each(code, scratch_, [&out](std::size_t, std::uint64_t next) {
    out.push_back(next);
  });
  const std::size_t enabled = out.size();
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return enabled;
}

namespace detail {

void record_convergence_metrics(const ConvergenceReport& report) {
  if (!obs::Metrics::enabled()) return;
  auto& registry = obs::Registry::instance();
  registry.counter("checker.convergence.checks").add(1);
  registry.counter("checker.convergence.region_states")
      .add(report.region_states);
  registry.counter("checker.convergence.transitions").add(report.transitions);
}

}  // namespace detail

namespace {

/// Pass 1 of both convergence checks: the S/T flag byte per code plus the
/// states_in_S / states_in_T counts filled into `report`. The engine
/// produces the same counts into a 2-bit array with sharded evaluation.
std::vector<std::uint8_t> evaluate_flags(const StateSpace& space,
                                         const PredicateFn& S,
                                         const PredicateFn& T,
                                         ConvergenceReport& report) {
  obs::Span span("checker.flags");
  const Program& p = space.program();
  std::vector<std::uint8_t> flags(space.size(), 0);
  State s(p.num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    std::uint8_t f = 0;
    const bool in_T = T(s);
    if (in_T) f |= detail::kFlagT;
    if (S(s)) {
      f |= detail::kFlagS;
      if (in_T) ++report.states_in_S;
    }
    if (in_T) ++report.states_in_T;
    flags[code] = f;
  }
  return flags;
}

/// Dense bookkeeping of the serial oracle: one vector slot per code over
/// the full range, the layout that caps it near ~32M states; the engine
/// instantiates the same core over packed arrays.
struct DenseDfsBookkeeping {
  explicit DenseDfsBookkeeping(std::uint64_t size)
      : color_(size, 0), dist_(size, 0) {}

  std::uint8_t color(std::uint64_t code) const { return color_[code]; }
  void set_color(std::uint64_t code, std::uint8_t c) { color_[code] = c; }
  std::uint32_t dist(std::uint64_t code) const { return dist_[code]; }
  void set_dist(std::uint64_t code, std::uint32_t d) { dist_[code] = d; }

  std::vector<std::uint8_t> color_;
  std::vector<std::uint32_t> dist_;
};

}  // namespace

ConvergenceReport check_convergence(const StateSpace& space,
                                    const PredicateFn& S,
                                    const PredicateFn& T) {
  ConvergenceReport report;
  const auto flags = evaluate_flags(space, S, T, report);
  ProgramSuccessors succ(space, non_fault_actions(space.program()));
  DenseDfsBookkeeping bk(space.size());
  return detail::check_convergence_core_impl(space, flags, succ,
                                             std::move(report), bk);
}

ConvergenceReport check_convergence_weakly_fair(const StateSpace& space,
                                                const PredicateFn& S,
                                                const PredicateFn& T) {
  ConvergenceReport report;
  const auto flags = evaluate_flags(space, S, T, report);
  const auto actions = non_fault_actions(space.program());
  ProgramSuccessors succ(space, actions);
  detail::DenseTarjanBookkeeping bk(space.size());
  return detail::check_convergence_weakly_fair_core_impl(
      space, flags, succ, actions, std::move(report), bk);
}

ToleranceReport verify_tolerance(const StateSpace& space,
                                 const Design& design) {
  ToleranceReport report;
  report.closure_S = check_closed(space, design.S());
  report.closure_T = check_closed(space, design.T());
  report.convergence = check_convergence(space, design.S(), design.T());
  return report;
}

const char* to_string(ToleranceClass c) noexcept {
  switch (c) {
    case ToleranceClass::kMasking: return "masking";
    case ToleranceClass::kNonmasking: return "nonmasking";
    case ToleranceClass::kNotTolerant: return "not tolerant";
  }
  return "?";
}

ToleranceClass classify_tolerance(const StateSpace& space,
                                  const Design& design) {
  const auto report = verify_tolerance(space, design);
  if (!report.tolerant()) return ToleranceClass::kNotTolerant;
  // S = T?
  const auto S = design.S();
  const auto T = design.T();
  State s(space.program().num_variables());
  for (std::uint64_t code = 0; code < space.size(); ++code) {
    space.decode_into(code, s);
    if (S(s) != T(s)) return ToleranceClass::kNonmasking;
  }
  return ToleranceClass::kMasking;
}

}  // namespace nonmask
