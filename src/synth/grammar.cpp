#include "synth/grammar.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

namespace nonmask::synth {

namespace {

/// Per-variable statement compiled from an AssignTemplate: everything the
/// statement lambda needs, with the target's domain bounds baked in.
struct CompiledAssign {
  VarId target;
  ExprKind kind;
  VarId source;
  Value constant;
  Value lo;
  Value hi;
  std::vector<VarId> mex_over;
};

/// Simultaneous assignment: all right-hand sides read the pre-state.
constexpr std::size_t kMaxAssigns = 16;

Value evaluate(const CompiledAssign& a, const State& s) {
  switch (a.kind) {
    case ExprKind::kCopy: {
      const Value v = s.get(a.source);
      return v < a.lo ? a.lo : (v > a.hi ? a.hi : v);
    }
    case ExprKind::kDec: {
      const Value v = s.get(a.target);
      return v > a.lo ? v - 1 : a.lo;
    }
    case ExprKind::kInc: {
      const Value v = s.get(a.target);
      return v < a.hi ? v + 1 : a.hi;
    }
    case ExprKind::kMex: {
      for (Value v = a.lo; v <= a.hi; ++v) {
        bool used = false;
        for (VarId u : a.mex_over) {
          if (s.get(u) == v) {
            used = true;
            break;
          }
        }
        if (!used) return v;
      }
      return s.get(a.target);  // every domain value is taken: keep
    }
    case ExprKind::kConst:
      return a.constant;
  }
  return a.constant;  // unreachable
}

}  // namespace

const char* to_string(ExprKind kind) noexcept {
  switch (kind) {
    case ExprKind::kCopy: return "copy";
    case ExprKind::kDec: return "dec";
    case ExprKind::kInc: return "inc";
    case ExprKind::kMex: return "mex";
    case ExprKind::kConst: return "const";
  }
  return "?";
}

std::string ActionCandidate::describe(const Program& program) const {
  std::string out;
  for (std::size_t i = 0; i < assigns.size(); ++i) {
    const AssignTemplate& a = assigns[i];
    if (i > 0) out += ", ";
    out += program.variable(a.target).name;
    out += " := ";
    switch (a.kind) {
      case ExprKind::kCopy:
        out += program.variable(a.source).name;
        break;
      case ExprKind::kDec:
        out += "dec(" + program.variable(a.target).name + ")";
        break;
      case ExprKind::kInc:
        out += "inc(" + program.variable(a.target).name + ")";
        break;
      case ExprKind::kMex: {
        out += "mex(";
        for (std::size_t j = 0; j < a.mex_over.size(); ++j) {
          if (j > 0) out += ", ";
          out += program.variable(a.mex_over[j]).name;
        }
        out += ")";
        break;
      }
      case ExprKind::kConst:
        out += std::to_string(a.constant);
        break;
    }
  }
  return out;
}

Action ActionCandidate::build(const Program& program,
                              const Constraint& constraint) const {
  if (assigns.empty() || assigns.size() > kMaxAssigns) {
    throw std::invalid_argument("ActionCandidate: assignment count out of range");
  }
  std::vector<CompiledAssign> compiled;
  compiled.reserve(assigns.size());
  std::vector<VarId> writes;
  for (const AssignTemplate& a : assigns) {
    const VariableSpec& spec = program.variable(a.target);
    compiled.push_back(
        {a.target, a.kind, a.source, a.constant, spec.lo, spec.hi, a.mex_over});
    writes.push_back(a.target);
  }
  std::sort(writes.begin(), writes.end());

  const PredicateFn c = constraint.fn;
  GuardFn guard = [c](const State& s) { return !c(s); };
  StatementFn statement = [compiled](State& s) {
    std::array<Value, kMaxAssigns> next{};
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      next[i] = evaluate(compiled[i], s);
    }
    for (std::size_t i = 0; i < compiled.size(); ++i) {
      s.set(compiled[i].target, next[i]);
    }
  };

  // A distributed action belongs to a process iff every written variable
  // does.
  int process = program.variable(assigns.front().target).process;
  for (const AssignTemplate& a : assigns) {
    if (program.variable(a.target).process != process) {
      process = VariableSpec::kNoProcess;
      break;
    }
  }

  Action action("synth[" + constraint.name + "]: " + describe(program),
                ActionKind::kConvergence, std::move(guard),
                std::move(statement), constraint.support, std::move(writes),
                process);
  action.set_constraint_id(static_cast<int>(constraint_index));
  return action;
}

namespace {

/// kConst templates are enumerated only for domains of at most this size
/// (constants explode the space on wide domains and are rarely needed).
constexpr std::uint64_t kConstDomainCap = 4;
/// Cap on candidates enumerated per constraint (applied after ordering, so
/// the simplest candidates always survive).
constexpr std::size_t kMaxCandidatesPerConstraint = 512;

/// One selectable option for a group variable; index 0 is always "keep".
struct VarOptions {
  VarId var;
  std::vector<AssignTemplate> options;  ///< excluding "keep"
};

std::vector<AssignTemplate> options_for(const Program& program, VarId target,
                                        const std::vector<VarId>& support) {
  std::vector<AssignTemplate> out;
  const VariableSpec& spec = program.variable(target);

  // Copy: sources in support order whose domain overlaps the target's
  // (values are clamped into the target's domain at execution).
  for (VarId src : support) {
    if (src == target) continue;
    const VariableSpec& sspec = program.variable(src);
    if (sspec.hi < spec.lo || sspec.lo > spec.hi) continue;
    AssignTemplate a;
    a.target = target;
    a.kind = ExprKind::kCopy;
    a.source = src;
    out.push_back(std::move(a));
  }

  if (spec.domain_size() >= 2) {
    AssignTemplate dec;
    dec.target = target;
    dec.kind = ExprKind::kDec;
    out.push_back(std::move(dec));

    AssignTemplate inc;
    inc.target = target;
    inc.kind = ExprKind::kInc;
    out.push_back(std::move(inc));

    std::vector<VarId> others;
    for (VarId v : support) {
      if (v != target) others.push_back(v);
    }
    if (!others.empty()) {
      AssignTemplate mex;
      mex.target = target;
      mex.kind = ExprKind::kMex;
      mex.mex_over = std::move(others);
      out.push_back(std::move(mex));
    }
  }

  if (spec.domain_size() <= kConstDomainCap) {
    for (Value k = spec.lo; k <= spec.hi; ++k) {
      AssignTemplate c;
      c.target = target;
      c.kind = ExprKind::kConst;
      c.constant = k;
      out.push_back(std::move(c));
    }
  }
  return out;
}

}  // namespace

std::vector<ActionCandidate> enumerate_candidates(
    const Program& program, const Invariant& invariant, std::size_t cid,
    const GrammarOptions& opts) {
  const Constraint& constraint = invariant.at(cid);

  // Writable targets: the constraint's support, optionally filtered.
  std::vector<VarId> targets;
  for (VarId v : constraint.support) {
    if (!opts.writable.empty() &&
        std::find(opts.writable.begin(), opts.writable.end(), v) ==
            opts.writable.end()) {
      continue;
    }
    targets.push_back(v);
  }

  // Write groups: variables owned by the same process form one group (a
  // process may correct all of its own variables atomically); shared
  // variables are singleton groups.
  std::vector<std::vector<VarId>> groups;
  for (VarId v : targets) {
    const int proc = program.variable(v).process;
    bool placed = false;
    if (proc != VariableSpec::kNoProcess) {
      for (auto& g : groups) {
        if (program.variable(g.front()).process == proc) {
          g.push_back(v);
          placed = true;
          break;
        }
      }
    }
    if (!placed) groups.push_back({v});
  }
  // Deterministic group order: descending process, then descending maximum
  // variable index — later processes (typically the "downstream" side of a
  // constraint) get to correct first.
  auto group_key = [&](const std::vector<VarId>& g) {
    int proc = VariableSpec::kNoProcess;
    std::uint32_t max_index = 0;
    for (VarId v : g) {
      proc = std::max(proc, program.variable(v).process);
      max_index = std::max(max_index, v.index());
    }
    return std::make_pair(proc, max_index);
  };
  std::stable_sort(groups.begin(), groups.end(),
                   [&](const auto& a, const auto& b) {
                     return group_key(a) > group_key(b);
                   });

  std::vector<ActionCandidate> candidates;
  constexpr std::size_t kGroupComboCap = 65'536;
  for (const auto& group : groups) {
    std::vector<VarOptions> per_var;
    std::size_t total = 1;
    for (VarId v : group) {
      VarOptions vo;
      vo.var = v;
      vo.options = options_for(program, v, constraint.support);
      total *= vo.options.size() + 1;  // +1 for "keep"
      per_var.push_back(std::move(vo));
      if (total > kGroupComboCap) {
        total = kGroupComboCap;
        break;
      }
    }

    // Mixed-radix enumeration: first group variable varies fastest; digit 0
    // means "keep". Collect (writes, rank) and stable-sort so that combos
    // writing fewer variables come first.
    std::vector<ActionCandidate> group_candidates;
    std::vector<std::size_t> digits(per_var.size(), 0);
    for (std::size_t rank = 0; rank + 1 < kGroupComboCap; ++rank) {
      // Advance (skip the all-keep combo at rank 0 by advancing first).
      std::size_t i = 0;
      for (; i < digits.size(); ++i) {
        if (++digits[i] <= per_var[i].options.size()) break;
        digits[i] = 0;
      }
      if (i == digits.size()) break;  // wrapped: enumeration complete

      ActionCandidate cand;
      cand.constraint_index = cid;
      for (std::size_t j = 0; j < digits.size(); ++j) {
        if (digits[j] == 0) continue;
        cand.assigns.push_back(per_var[j].options[digits[j] - 1]);
      }
      group_candidates.push_back(std::move(cand));
    }
    std::stable_sort(group_candidates.begin(), group_candidates.end(),
                     [](const ActionCandidate& a, const ActionCandidate& b) {
                       return a.assigns.size() < b.assigns.size();
                     });
    for (auto& c : group_candidates) candidates.push_back(std::move(c));
  }

  if (candidates.size() > kMaxCandidatesPerConstraint) {
    candidates.resize(kMaxCandidatesPerConstraint);
  }
  return candidates;
}

}  // namespace nonmask::synth
