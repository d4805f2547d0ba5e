#include "checker/state_space.hpp"

namespace nonmask {

StateSpace::StateSpace(const Program& program, std::uint64_t budget)
    : program_(&program) {
  const auto count = program.state_count();
  if (!count || *count > budget) {
    throw StateSpaceTooLarge(count.value_or(~std::uint64_t{0}), budget);
  }
  size_ = *count;
  digits_.reserve(program.num_variables());
  std::uint64_t stride = 1;
  for (std::uint32_t i = 0; i < program.num_variables(); ++i) {
    const VariableSpec& spec = program.variable(VarId(i));
    digits_.push_back({spec.lo, spec.domain_size(), stride});
    stride *= spec.domain_size();
  }
}

State StateSpace::decode(std::uint64_t code) const {
  State s(program_->num_variables());
  decode_into(code, s);
  return s;
}

void StateSpace::decode_into(std::uint64_t code, State& s) const {
  // Peel the digits off from the least significant one (variable 0, stride
  // 1): the quotient and remainder come from one division per variable.
  for (std::uint32_t i = 0; i < digits_.size(); ++i) {
    const Digit& d = digits_[i];
    const std::uint64_t digit = code % d.size;
    code /= d.size;
    // Widen before offsetting: lo + digit can exceed int32 range midway
    // even though the final value is in [lo, hi].
    s.set(VarId(i),
          static_cast<Value>(d.lo + static_cast<std::int64_t>(digit)));
  }
}

std::uint64_t StateSpace::encode(const State& s) const {
  std::uint64_t code = 0;
  for (std::uint32_t i = 0; i < digits_.size(); ++i) {
    const Digit& d = digits_[i];
    // value - lo in 64-bit: the 32-bit difference overflows for domains
    // spanning more than half the Value range (e.g. [INT32_MIN, INT32_MAX]).
    // A value below lo wraps to a huge digit, so one comparison checks
    // both ends of the domain.
    const Value value = s.get(VarId(i));
    const auto digit =
        static_cast<std::uint64_t>(static_cast<std::int64_t>(value) - d.lo);
    if (digit >= d.size) throw_out_of_domain(i, value);
    code += d.stride * digit;
  }
  return code;
}

void StateSpace::throw_out_of_domain(std::uint32_t var, Value value) const {
  const VariableSpec& spec = program_->variable(VarId(var));
  throw StateOutOfDomain(spec.name, value, spec.lo, spec.hi);
}

StateOutOfDomain::StateOutOfDomain(const std::string& variable, Value value,
                                   Value lo, Value hi)
    : std::domain_error("state out of domain: variable '" + variable +
                        "' = " + std::to_string(value) +
                        " lies outside its domain [" + std::to_string(lo) +
                        ", " + std::to_string(hi) + "]"),
      variable_(variable),
      value_(value) {}

bool fits_in_budget(const Program& program, std::uint64_t budget) {
  const auto count = program.state_count();
  return count && *count <= budget;
}

std::vector<std::size_t> non_fault_actions(const Program& program) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < program.num_actions(); ++i) {
    if (program.action(i).kind() != ActionKind::kFault) out.push_back(i);
  }
  return out;
}

}  // namespace nonmask
