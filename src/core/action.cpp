#include "core/action.hpp"

#include <algorithm>

namespace nonmask {

const char* to_string(ActionKind kind) noexcept {
  switch (kind) {
    case ActionKind::kClosure: return "closure";
    case ActionKind::kConvergence: return "convergence";
    case ActionKind::kFault: return "fault";
    case ActionKind::kEnvironment: return "environment";
  }
  return "unknown";
}

std::vector<VarId> Action::contract_violations(const State& s) const {
  State next = apply(s);
  std::vector<VarId> illegal;
  for (std::uint32_t i = 0; i < s.size(); ++i) {
    const VarId id(i);
    if (s.get(id) == next.get(id)) continue;
    if (std::find(writes().begin(), writes().end(), id) == writes().end()) {
      illegal.push_back(id);
    }
  }
  return illegal;
}

}  // namespace nonmask
