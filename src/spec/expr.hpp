// The spec DSL's expression language.
//
// Guards, assignments, constraints, fault spans, and invariants in a spec
// document are strings in a small C-like expression language, parsed by a
// hand-rolled precedence-climbing parser and compiled against a program's
// variables. Two evaluation layers share one AST:
//
//  * index time — parameters (`n`, user params), comprehension binders
//    (`j`, `k`, ...), and topology accessors (next/prev/parent/deg/nbr/
//    root) fold to compile-time integers while a parameterized spec is
//    expanded over its topology. Any subexpression referencing no program
//    variable constant-folds, so `j == root() ? 0 : dist[j]` picks its
//    branch statically per process.
//  * state time — what remains compiles to a closure over core::State,
//    with the referenced VarIds collected in first-occurrence order (the
//    derived read set of actions and the support of constraints). Under
//    a spec compile, every maximal subexpression whose read set spans few
//    value combinations is then evaluated by lookup in a footprint table
//    that its closure fills (spec/footprint.hpp).
//
// Grammar (precedence low to high):
//   ternary := or ('?' ternary ':' ternary)?
//   or      := and ('||' and)*
//   and     := cmp ('&&' cmp)*
//   cmp     := add (('=='|'!='|'<'|'<='|'>'|'>=') add)?
//   add     := mul (('+'|'-') mul)*
//   mul     := unary (('*'|'/'|'%') unary)*
//   unary   := ('!'|'-')* primary
//   primary := INT | IDENT | IDENT '[' ternary ']'
//            | IDENT '(' args ')' | '(' ternary ')'
//   args    := '' | ternary (',' ternary)*
//            | IDENT ':' ternary ',' ternary     -- comprehension
//
// Booleans are ints (0 = false); comparisons yield 0/1. `/` and `%` by
// zero evaluate to 0 (total semantics, documented in docs/SPEC.md).
// Identifiers may contain '.' after the first character, so fully expanded
// specs can reference per-process instances like `x.3` or `env.noise`
// directly. Comprehensions — `all|any|sum|count|min|max|first|mex(k : SET,
// BODY)` over `procs()`, `range(a,b)`, `nbrs(j)`, `lower_nbrs(j)`,
// `children(j)` — are unrolled at expansion time over the topology.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/state.hpp"
#include "core/variable.hpp"
#include "spec/footprint.hpp"

namespace nonmask::spec {

class ExprError : public std::runtime_error {
 public:
  explicit ExprError(const std::string& message)
      : std::runtime_error(message) {}
};

struct ExprNode;
using ExprPtr = std::shared_ptr<const ExprNode>;

struct ExprNode {
  enum class Kind {
    kLit,
    kIdent,
    kSubscript,      // name[args[0]]
    kCall,           // name(args...)
    kUnary,          // name is "!" or "-", args[0]
    kBinary,         // args[0] ops[0] args[1] ops[1] ..., left-associative
    kTernary,        // args[0] ? args[1] : args[2]
    kComprehension,  // name(binder : args[0], args[1])
  };
  Kind kind = Kind::kLit;
  long long lit = 0;
  std::string name;
  std::string binder;
  std::vector<ExprPtr> args;
  std::vector<std::string> ops;  // kBinary: ops[i] joins args[i], args[i+1]
};

/// Deepest nesting parse_expr accepts: parentheses, unary operators,
/// ternaries and call arguments count one level each. The parser and every
/// later pass over the tree recurse per level, so the bound keeps a hostile
/// expression from exhausting the stack. Operator chains (`a && b && ...`)
/// are one flat node and do not nest.
inline constexpr int kMaxExprDepth = 256;

/// Parse one expression; the whole string must be consumed. Throws
/// ExprError with a character position on malformed input or nesting past
/// kMaxExprDepth.
ExprPtr parse_expr(const std::string& text);

/// The expansion-time view of a spec's topology. Built by the compiler
/// from the spec's `topology` object over the graphlib generators; an
/// expanded (emitter-produced) spec has none and uses no index functions.
struct Topology {
  enum class Kind { kNone, kRing, kTree, kGraph };
  Kind kind = Kind::kNone;
  int n = 0;
  int root = 0;
  std::vector<int> parent;                 // trees
  std::vector<std::vector<int>> children;  // trees
  std::vector<std::vector<int>> nbrs;      // trees, graphs, rings
};

struct CompileEnv {
  /// Spec params plus "n" (process count) when a topology is present.
  const std::unordered_map<std::string, long long>* params = nullptr;
  /// Comprehension / expansion binders currently in scope.
  std::unordered_map<std::string, long long> binders;
  const Topology* topo = nullptr;
  /// Full variable names of the program under construction: the
  /// compiler's own index, filled as it declares variables.
  const std::unordered_map<std::string, VarId>* names = nullptr;
  /// Per-process variable families: `x[3]` resolves through this map.
  const std::unordered_map<std::string, std::vector<VarId>>* families =
      nullptr;
  /// The design's footprint tables. When present, the operands of every
  /// node too wide for a table of its own get one (FootprintTables::
  /// tabulate); the caller tabulates the roots.
  FootprintTables* tables = nullptr;
};

/// A compiled state expression: a constant, a footprint table, or a
/// closure, plus the VarIds it reads in first-occurrence order
/// (deduplicated).
struct CompiledExpr {
  bool is_const = false;
  Value value = 0;
  /// Valid for a lone variable read, which gets no table.
  VarId var;
  /// The closure: the definition of every non-constant form. Tabulating
  /// the expression moves it into `table`.
  std::function<Value(const State&)> fn;
  std::shared_ptr<const FootprintTable> table;
  std::vector<VarId> reads;

  Value eval(const State& s) const {
    if (is_const) return value;
    if (table != nullptr) return table->eval(s);
    return fn(s);
  }
};

/// A node's derived read set: its operands' read sets merged in
/// first-occurrence order. A few ids dedupe by scanning; past that, through
/// one seen-set, so a node over n operands merges in O(n), not O(n^2).
class ReadUnion {
 public:
  void add(const std::vector<VarId>& ids) {
    for (VarId id : ids) add(id);
  }
  void add(VarId id) {
    if (seen_.empty()) {
      for (VarId r : ids_) {
        if (r == id) return;
      }
      ids_.push_back(id);
      if (ids_.size() > kScan) {
        for (VarId r : ids_) seen_.insert(r.index());
      }
    } else if (seen_.insert(id.index()).second) {
      ids_.push_back(id);
    }
  }
  void clear() {
    ids_.clear();
    seen_.clear();
  }
  std::vector<VarId> take() { return std::move(ids_); }

 private:
  static constexpr std::size_t kScan = 16;
  std::vector<VarId> ids_;
  std::unordered_set<std::uint32_t> seen_;
};

/// Compile against `env`; throws ExprError on unknown names, non-constant
/// subscripts, or misuse of index functions.
CompiledExpr compile_expr(const ExprPtr& node, const CompileEnv& env);

/// Compile and require a compile-time constant (domain bounds, `where`
/// clauses, constraint ids). Throws ExprError when state-dependent.
long long eval_index_expr(const ExprPtr& node, const CompileEnv& env);

/// Convenience: parse + eval_index_expr.
long long eval_index_expr(const std::string& text, const CompileEnv& env);

}  // namespace nonmask::spec
