#include "checker/preserves.hpp"

namespace nonmask {

PreservesReport check_preserves(const StateSpace& space, const Action& action,
                                const PredicateFn& predicate,
                                const PredicateFn& context) {
  PreservesReport report;
  report.counterexample =
      first_failure(space, [&](const State& s, State& next) {
        if (context && !context(s)) return true;
        if (!predicate(s) || !action.enabled(s)) return true;
        action.apply_into(s, next);
        return predicate(next);
      });
  report.preserves = !report.counterexample;
  return report;
}

}  // namespace nonmask
