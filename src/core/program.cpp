#include "core/program.hpp"

#include <sstream>
#include <stdexcept>

namespace nonmask {

VarId Program::add_variable(VariableSpec spec) {
  if (variables_.size() >= 0xfffffffeu) {
    throw std::length_error("Program: too many variables");
  }
  variables_.push_back(std::move(spec));
  return VarId(static_cast<std::uint32_t>(variables_.size() - 1));
}

VarId Program::find_variable(const std::string& name) const noexcept {
  for (std::uint32_t i = 0; i < variables_.size(); ++i) {
    if (variables_[i].name == name) return VarId(i);
  }
  return VarId();
}

std::size_t Program::add_action(Action action) {
  actions_.push_back(std::move(action));
  return actions_.size() - 1;
}

std::vector<std::size_t> Program::actions_of_kind(ActionKind kind) const {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    if (actions_[i].kind() == kind) out.push_back(i);
  }
  return out;
}

std::vector<std::size_t> Program::enabled_actions(const State& s) const {
  std::vector<std::size_t> out;
  enabled_actions(s, out);
  return out;
}

void Program::enabled_actions(const State& s,
                              std::vector<std::size_t>& out) const {
  out.clear();
  for (std::size_t i = 0; i < actions_.size(); ++i) {
    if (actions_[i].kind() == ActionKind::kFault) continue;
    if (actions_[i].enabled(s)) out.push_back(i);
  }
}

bool Program::any_enabled(const State& s) const {
  for (const auto& a : actions_) {
    if (a.kind() == ActionKind::kFault) continue;
    if (a.enabled(s)) return true;
  }
  return false;
}

State Program::initial_state() const {
  State s(variables_.size());
  for (std::uint32_t i = 0; i < variables_.size(); ++i) {
    s.set(VarId(i), variables_[i].lo);
  }
  return s;
}

std::optional<std::uint64_t> Program::state_count() const noexcept {
  // Exact overflow detection: the mixed-radix product must fit uint64_t or
  // the state space has no valid code range at all (StateSpace throws
  // StateSpaceTooLarge on nullopt). The previous conservative bound
  // rejected legitimate sizes in [2^63, 2^64).
  std::uint64_t count = 1;
  for (const auto& v : variables_) {
    if (__builtin_mul_overflow(count, v.domain_size(), &count)) {
      return std::nullopt;
    }
  }
  return count;
}

State Program::random_state(Rng& rng) const {
  State s(variables_.size());
  for (std::uint32_t i = 0; i < variables_.size(); ++i) {
    const auto& v = variables_[i];
    s.set(VarId(i), static_cast<Value>(rng.range(v.lo, v.hi)));
  }
  return s;
}

bool Program::in_domain(const State& s) const noexcept {
  if (s.size() != variables_.size()) return false;
  for (std::uint32_t i = 0; i < variables_.size(); ++i) {
    if (!variables_[i].contains(s.get(VarId(i)))) return false;
  }
  return true;
}

void Program::clamp(State& s) const noexcept {
  for (std::uint32_t i = 0; i < variables_.size(); ++i) {
    s.set(VarId(i), variables_[i].clamp(s.get(VarId(i))));
  }
}

std::string Program::format_state(const State& s) const {
  std::ostringstream out;
  for (std::uint32_t i = 0; i < variables_.size(); ++i) {
    if (i != 0) out << ", ";
    out << variables_[i].name << "=" << s.get(VarId(i));
  }
  return out.str();
}

std::string Program::check_contracts(const State& s) const {
  std::ostringstream out;
  for (const auto& a : actions_) {
    if (!a.enabled(s) && a.kind() != ActionKind::kFault) continue;
    const auto illegal = a.contract_violations(s);
    for (VarId id : illegal) {
      out << "action '" << a.name() << "' wrote undeclared variable '"
          << variables_.at(id.index()).name << "'\n";
    }
  }
  return out.str();
}

}  // namespace nonmask
