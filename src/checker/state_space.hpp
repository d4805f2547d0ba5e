// Explicit state spaces.
//
// Every variable has a finite interval domain, so the state space is a
// mixed-radix product: each state has a unique integer code in
// [0, prod(domain sizes)). The checker modules iterate codes, decode to
// states, and index per-state bookkeeping arrays by code.
#pragma once

#include <cstdint>
#include <stdexcept>
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
  /// Encode a state (must be in-domain) to its code.
  std::uint64_t encode(const State& s) const;

 private:
  const Program* program_;
  std::uint64_t size_ = 1;
  std::vector<std::uint64_t> stride_;  // per-variable mixed-radix stride
};

/// True iff `program`'s full state space fits within `budget` states.
bool fits_in_budget(const Program& program,
                    std::uint64_t budget = StateSpace::kDefaultBudget);

/// Indices of `program`'s non-fault actions, in program order — the action
/// set every checker module iterates.
std::vector<std::size_t> non_fault_actions(const Program& program);

}  // namespace nonmask
