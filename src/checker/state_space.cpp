#include "checker/state_space.hpp"

namespace nonmask {

StateSpace::StateSpace(const Program& program, std::uint64_t budget)
    : program_(&program) {
  const auto count = program.state_count();
  if (!count || *count > budget) {
    throw StateSpaceTooLarge(count.value_or(~std::uint64_t{0}), budget);
  }
  size_ = *count;
  stride_.resize(program.num_variables());
  std::uint64_t stride = 1;
  for (std::uint32_t i = 0; i < program.num_variables(); ++i) {
    stride_[i] = stride;
    stride *= program.variable(VarId(i)).domain_size();
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
  for (std::uint32_t i = 0; i < program_->num_variables(); ++i) {
    const auto& spec = program_->variable(VarId(i));
    const std::uint64_t domain = spec.domain_size();
    const std::uint64_t digit = code % domain;
    code /= domain;
    // Widen before offsetting: lo + digit can exceed int32 range midway
    // even though the final value is in [lo, hi].
    s.set(VarId(i), static_cast<Value>(static_cast<std::int64_t>(spec.lo) +
                                       static_cast<std::int64_t>(digit)));
  }
}

std::uint64_t StateSpace::encode(const State& s) const {
  std::uint64_t code = 0;
  for (std::uint32_t i = 0; i < program_->num_variables(); ++i) {
    const auto& spec = program_->variable(VarId(i));
    // value - lo in 64-bit: the 32-bit difference overflows for domains
    // spanning more than half the Value range (e.g. [INT32_MIN, INT32_MAX]).
    code += stride_[i] *
            static_cast<std::uint64_t>(
                static_cast<std::int64_t>(s.get(VarId(i))) -
                static_cast<std::int64_t>(spec.lo));
  }
  return code;
}

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
