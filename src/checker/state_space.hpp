// Explicit state spaces.
//
// Every variable has a finite interval domain, so the state space is a
// mixed-radix product: each state has a unique integer code in
// [0, prod(domain sizes)). The checker modules iterate codes, decode to
// states, and index per-state bookkeeping arrays by code.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/program.hpp"
#include "core/state.hpp"

namespace nonmask {

class StateSpaceTooLarge : public std::runtime_error {
 public:
  explicit StateSpaceTooLarge(std::uint64_t requested, std::uint64_t budget)
      : std::runtime_error("state space of " + std::to_string(requested) +
                           " states exceeds budget of " +
                           std::to_string(budget)),
        requested_(requested),
        budget_(budget) {}
  std::uint64_t requested() const noexcept { return requested_; }
  std::uint64_t budget() const noexcept { return budget_; }

 private:
  std::uint64_t requested_;
  std::uint64_t budget_;
};

/// Thrown by StateSpace::encode for a state with a value outside its
/// variable's domain — typically the successor of an action that writes
/// past the domain. Such a state has no code: the checkers index per-code
/// arrays by it, so encoding it anyway would read out of bounds.
class StateOutOfDomain : public std::domain_error {
 public:
  StateOutOfDomain(const std::string& variable, Value value, Value lo,
                   Value hi);
  const std::string& variable() const noexcept { return variable_; }
  Value value() const noexcept { return value_; }

 private:
  std::string variable_;
  Value value_;
};

class StateSpace {
 public:
  /// Default budget: 32M states (~raw bookkeeping arrays of 32-256 MB).
  static constexpr std::uint64_t kDefaultBudget = 32'000'000;

  explicit StateSpace(const Program& program,
                      std::uint64_t budget = kDefaultBudget);

  const Program& program() const noexcept { return *program_; }
  std::uint64_t size() const noexcept { return size_; }

  /// Decode a code in [0, size()) to a state.
  State decode(std::uint64_t code) const;
  /// Decode into an existing state: no allocation, one division per
  /// variable.
  void decode_into(std::uint64_t code, State& s) const;
  /// Encode a state to its code. Throws StateOutOfDomain when a value
  /// lies outside its variable's domain.
  std::uint64_t encode(const State& s) const;

 private:
  /// One mixed-radix digit per variable, read by decode and encode.
  struct Digit {
    std::int64_t lo;      ///< domain lower bound
    std::uint64_t size;   ///< domain size (the digit's radix)
    std::uint64_t stride; ///< product of the earlier variables' sizes
  };

  [[noreturn]] void throw_out_of_domain(std::uint32_t var, Value value) const;

  const Program* program_;
  std::uint64_t size_ = 1;
  std::vector<Digit> digits_;
};

/// True iff `program`'s full state space fits within `budget` states.
bool fits_in_budget(const Program& program,
                    std::uint64_t budget = StateSpace::kDefaultBudget);

/// Indices of `program`'s non-fault actions, in program order — the action
/// set every checker module iterates.
std::vector<std::size_t> non_fault_actions(const Program& program);

}  // namespace nonmask
