#include "spec/expr.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <cstdint>
#include <limits>
#include <utility>

namespace nonmask::spec {

namespace {

// --- lexer ----------------------------------------------------------------

struct Token {
  enum class Kind { kInt, kIdent, kOp, kEnd };
  Kind kind = Kind::kEnd;
  long long value = 0;
  std::string text;
  std::size_t pos = 0;
};

class Lexer {
 public:
  explicit Lexer(const std::string& text) : text_(text) { next(); }

  const Token& peek() const noexcept { return current_; }

  Token take() {
    Token t = current_;
    next();
    return t;
  }

  /// Snapshot/restore for finite lookahead (comprehension detection).
  struct Snapshot {
    std::size_t pos;
    Token current;
  };
  Snapshot save() const { return {pos_, current_}; }
  void restore(const Snapshot& snap) {
    pos_ = snap.pos;
    current_ = snap.current;
  }

  [[noreturn]] void fail(const std::string& message) const {
    throw ExprError(message + " at position " +
                    std::to_string(current_.pos) + " in expression \"" +
                    text_ + "\"");
  }

 private:
  void next() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
    current_ = Token{};
    current_.pos = pos_;
    if (pos_ >= text_.size()) {
      current_.kind = Token::Kind::kEnd;
      return;
    }
    const char c = text_[pos_];
    if (std::isdigit(static_cast<unsigned char>(c))) {
      long long value = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        const long long digit = text_[pos_] - '0';
        // Specs arrive over the network: a hostile digit string must be a
        // parse error, not signed-overflow UB.
        if (value > (std::numeric_limits<long long>::max() - digit) / 10) {
          throw ExprError("integer literal overflows at position " +
                          std::to_string(current_.pos) + " in expression \"" +
                          text_ + "\"");
        }
        value = value * 10 + digit;
        ++pos_;
      }
      current_.kind = Token::Kind::kInt;
      current_.value = value;
      return;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = pos_;
      while (pos_ < text_.size()) {
        const char i = text_[pos_];
        if (std::isalnum(static_cast<unsigned char>(i)) || i == '_' ||
            i == '.') {
          ++pos_;
        } else {
          break;
        }
      }
      current_.kind = Token::Kind::kIdent;
      current_.text = text_.substr(start, pos_ - start);
      return;
    }
    // Two-character operators first.
    static const char* kTwo[] = {"==", "!=", "<=", ">=", "&&", "||"};
    for (const char* op : kTwo) {
      if (text_.compare(pos_, 2, op) == 0) {
        current_.kind = Token::Kind::kOp;
        current_.text = op;
        pos_ += 2;
        return;
      }
    }
    static const std::string kOne = "+-*/%()[],?:<>!";
    if (kOne.find(c) != std::string::npos) {
      current_.kind = Token::Kind::kOp;
      current_.text = std::string(1, c);
      ++pos_;
      return;
    }
    throw ExprError(std::string("unexpected character '") + c +
                    "' at position " + std::to_string(pos_) +
                    " in expression \"" + text_ + "\"");
  }

  const std::string& text_;
  std::size_t pos_ = 0;
  Token current_;
};

bool is_op(const Token& t, const char* op) {
  return t.kind == Token::Kind::kOp && t.text == op;
}

// --- parser ---------------------------------------------------------------

class ExprParser {
 public:
  explicit ExprParser(const std::string& text) : lex_(text) {}

  ExprPtr parse() {
    ExprPtr e = ternary();
    if (lex_.peek().kind != Token::Kind::kEnd) {
      lex_.fail("trailing tokens");
    }
    return e;
  }

 private:
  static ExprPtr node(ExprNode n) {
    return std::make_shared<const ExprNode>(std::move(n));
  }

  void expect_op(const char* op) {
    if (!is_op(lex_.peek(), op)) {
      lex_.fail(std::string("expected '") + op + "'");
    }
    lex_.take();
  }

  /// Enter one nesting level. A failed parse discards the parser, so only
  /// successful paths step back out.
  void descend() {
    if (++depth_ > kMaxExprDepth) {
      lex_.fail("expression nested deeper than " +
                std::to_string(kMaxExprDepth) + " levels");
    }
  }

  ExprPtr ternary() {
    descend();
    ExprPtr cond = logical_or();
    if (is_op(lex_.peek(), "?")) {
      lex_.take();
      ExprPtr then = ternary();
      expect_op(":");
      ExprPtr otherwise = ternary();
      ExprNode n;
      n.kind = ExprNode::Kind::kTernary;
      n.args = {std::move(cond), std::move(then), std::move(otherwise)};
      cond = node(std::move(n));
    }
    --depth_;
    return cond;
  }

  /// Left-associative chain `a op b op c ...`, parsed in a loop into one
  /// flat kBinary node, so no pass over the tree recurses per link and a
  /// chain's length is bounded only by the input.
  ExprPtr binary_chain(ExprPtr (ExprParser::*sub)(),
                       std::initializer_list<const char*> ops) {
    ExprPtr first = (this->*sub)();
    ExprNode n;
    n.kind = ExprNode::Kind::kBinary;
    while (true) {
      const Token& t = lex_.peek();
      const char* matched = nullptr;
      for (const char* op : ops) {
        if (is_op(t, op)) {
          matched = op;
          break;
        }
      }
      if (matched == nullptr) break;
      lex_.take();
      if (n.args.empty()) n.args.push_back(std::move(first));
      n.ops.emplace_back(matched);
      n.args.push_back((this->*sub)());
    }
    return n.args.empty() ? first : node(std::move(n));
  }

  ExprPtr logical_or() {
    return binary_chain(&ExprParser::logical_and, {"||"});
  }
  ExprPtr logical_and() {
    return binary_chain(&ExprParser::comparison, {"&&"});
  }

  ExprPtr comparison() {
    ExprPtr lhs = additive();
    static const char* kCmps[] = {"==", "!=", "<=", ">=", "<", ">"};
    for (const char* op : kCmps) {
      if (is_op(lex_.peek(), op)) {
        lex_.take();
        ExprNode n;
        n.kind = ExprNode::Kind::kBinary;
        n.ops = {op};
        n.args = {std::move(lhs), additive()};
        return node(std::move(n));
      }
    }
    return lhs;
  }

  ExprPtr additive() {
    return binary_chain(&ExprParser::multiplicative, {"+", "-"});
  }
  ExprPtr multiplicative() {
    return binary_chain(&ExprParser::unary, {"*", "/", "%"});
  }

  ExprPtr unary() {
    if (is_op(lex_.peek(), "!") || is_op(lex_.peek(), "-")) {
      const Token t = lex_.take();
      descend();
      ExprNode n;
      n.kind = ExprNode::Kind::kUnary;
      n.name = t.text;
      n.args = {unary()};
      --depth_;
      return node(std::move(n));
    }
    return primary();
  }

  ExprPtr primary() {
    const Token& t = lex_.peek();
    if (t.kind == Token::Kind::kInt) {
      const Token taken = lex_.take();
      ExprNode n;
      n.kind = ExprNode::Kind::kLit;
      n.lit = taken.value;
      return node(std::move(n));
    }
    if (is_op(t, "(")) {
      lex_.take();
      ExprPtr inner = ternary();
      expect_op(")");
      return inner;
    }
    if (t.kind != Token::Kind::kIdent) {
      lex_.fail("expected expression");
    }
    const Token name = lex_.take();
    if (is_op(lex_.peek(), "[")) {
      lex_.take();
      ExprPtr index = ternary();
      expect_op("]");
      ExprNode n;
      n.kind = ExprNode::Kind::kSubscript;
      n.name = name.text;
      n.args = {std::move(index)};
      return node(std::move(n));
    }
    if (is_op(lex_.peek(), "(")) {
      lex_.take();
      // A call, or a comprehension `fn(binder : set, body)`: look ahead
      // for `IDENT ':'` and rewind when it is an ordinary argument.
      if (lex_.peek().kind == Token::Kind::kIdent) {
        const Lexer::Snapshot snap = lex_.save();
        const Token maybe_binder = lex_.take();
        if (is_op(lex_.peek(), ":")) {
          lex_.take();
          ExprPtr set = ternary();
          expect_op(",");
          ExprPtr body = ternary();
          expect_op(")");
          ExprNode n;
          n.kind = ExprNode::Kind::kComprehension;
          n.name = name.text;
          n.binder = maybe_binder.text;
          n.args = {std::move(set), std::move(body)};
          return node(std::move(n));
        }
        lex_.restore(snap);
      }
      if (is_op(lex_.peek(), ")")) {
        lex_.take();
        ExprNode n;
        n.kind = ExprNode::Kind::kCall;
        n.name = name.text;
        return node(std::move(n));
      }
      return finish_call(name.text, ternary());
    }
    ExprNode n;
    n.kind = ExprNode::Kind::kIdent;
    n.name = name.text;
    return node(std::move(n));
  }

  ExprPtr finish_call(const std::string& name, ExprPtr first) {
    ExprNode n;
    n.kind = ExprNode::Kind::kCall;
    n.name = name;
    n.args.push_back(std::move(first));
    while (is_op(lex_.peek(), ",")) {
      lex_.take();
      n.args.push_back(ternary());
    }
    expect_op(")");
    return node(std::move(n));
  }

  Lexer lex_;
  int depth_ = 0;  ///< nesting levels open at the current token
};

// --- compiler -------------------------------------------------------------

CompiledExpr make_const(long long v) {
  CompiledExpr c;
  c.is_const = true;
  c.value = static_cast<Value>(v);
  return c;
}

/// The first-occurrence union of the operands' read sets.
std::vector<VarId> union_reads(const std::vector<CompiledExpr>& operands) {
  ReadUnion reads;
  for (const CompiledExpr& e : operands) reads.add(e.reads);
  return reads.take();
}

/// True when a node reading `reads` gets no table of its own under a spec
/// compile, so its operands get theirs: the tables go to the maximal
/// subexpressions that fit.
bool too_wide(const CompileEnv& env, const std::vector<VarId>& reads) {
  return env.tables != nullptr && env.tables->entries_over(reads) == 0;
}

void tabulate_operands(const CompileEnv& env, const std::vector<VarId>& reads,
                       std::vector<CompiledExpr>& operands) {
  if (!too_wide(env, reads)) return;
  for (CompiledExpr& e : operands) env.tables->tabulate(e);
}

/// The mex of the k values value_at(0), ..., value_at(k - 1): the smallest
/// v >= 0 that none of them equals. It lies in [0, k], so only values in
/// [0, k) are marked present, in a bitmask that sits on the stack for
/// k < 64 (no allocation).
template <class ValueAt>
Value mex_of(std::size_t k, const ValueAt& value_at) {
  std::uint64_t small = 0;
  std::vector<std::uint64_t> large(k < 64 ? 0 : k / 64 + 1);
  std::uint64_t* present = k < 64 ? &small : large.data();
  for (std::size_t i = 0; i < k; ++i) {
    const long long v = value_at(i);
    if (v >= 0 && static_cast<unsigned long long>(v) < k) {
      present[v / 64] |= std::uint64_t{1} << (v % 64);
    }
  }
  std::size_t word = 0;
  while (present[word] == ~std::uint64_t{0}) ++word;  // bit k is never set
  return static_cast<Value>(word * 64 + std::countr_one(present[word]));
}

/// State-time mex over `parts`: the one closure behind both the call form
/// mex(a, b, ...) and the comprehension form mex(k : SET, body).
CompiledExpr compile_mex(std::vector<CompiledExpr> parts,
                         const CompileEnv& env) {
  CompiledExpr c;
  c.reads = union_reads(parts);
  tabulate_operands(env, c.reads, parts);
  c.fn = [parts = std::move(parts)](const State& s) {
    return mex_of(parts.size(),
                  [&](std::size_t i) { return parts[i].eval(s); });
  };
  return c;
}

CompiledExpr make_var_read(VarId id) {
  CompiledExpr c;
  c.var = id;
  c.fn = [id](const State& s) { return s.get(id); };
  c.reads = {id};
  return c;
}

using BinaryFn = long long (*)(long long, long long);

/// An operator's semantics, looked up once when its expression compiles
/// rather than by name at every evaluation. `/` and `%` by zero yield 0.
BinaryFn binary_fn(const std::string& op) {
  using LL = long long;
  if (op == "+") return [](LL a, LL b) -> LL { return a + b; };
  if (op == "-") return [](LL a, LL b) -> LL { return a - b; };
  if (op == "*") return [](LL a, LL b) -> LL { return a * b; };
  if (op == "/") return [](LL a, LL b) -> LL { return b == 0 ? 0 : a / b; };
  if (op == "%") return [](LL a, LL b) -> LL { return b == 0 ? 0 : a % b; };
  if (op == "==") return [](LL a, LL b) -> LL { return a == b ? 1 : 0; };
  if (op == "!=") return [](LL a, LL b) -> LL { return a != b ? 1 : 0; };
  if (op == "<") return [](LL a, LL b) -> LL { return a < b ? 1 : 0; };
  if (op == "<=") return [](LL a, LL b) -> LL { return a <= b ? 1 : 0; };
  if (op == ">") return [](LL a, LL b) -> LL { return a > b ? 1 : 0; };
  if (op == ">=") return [](LL a, LL b) -> LL { return a >= b ? 1 : 0; };
  if (op == "&&") {
    return [](LL a, LL b) -> LL { return (a != 0 && b != 0) ? 1 : 0; };
  }
  if (op == "||") {
    return [](LL a, LL b) -> LL { return (a != 0 || b != 0) ? 1 : 0; };
  }
  throw ExprError("unknown operator '" + op + "'");
}

const Topology& require_topo(const CompileEnv& env, const char* fn) {
  if (env.topo == nullptr || env.topo->kind == Topology::Kind::kNone) {
    throw ExprError(std::string(fn) +
                    " requires a spec topology (none declared)");
  }
  return *env.topo;
}

int check_node(const Topology& topo, long long j, const char* fn) {
  if (j < 0 || j >= topo.n) {
    throw ExprError(std::string(fn) + "(" + std::to_string(j) +
                    "): process index out of range [0, " +
                    std::to_string(topo.n) + ")");
  }
  return static_cast<int>(j);
}

std::vector<long long> eval_set(const ExprPtr& set, const CompileEnv& env) {
  if (set->kind != ExprNode::Kind::kCall) {
    throw ExprError("comprehension set must be procs()/range(a,b)/nbrs(j)/"
                    "lower_nbrs(j)/children(j)");
  }
  std::vector<long long> out;
  if (set->name == "procs") {
    const Topology& topo = require_topo(env, "procs");
    for (int j = 0; j < topo.n; ++j) out.push_back(j);
    return out;
  }
  if (set->name == "range") {
    if (set->args.size() != 2) throw ExprError("range(a, b) takes 2 args");
    const long long a = eval_index_expr(set->args[0], env);
    const long long b = eval_index_expr(set->args[1], env);
    for (long long v = a; v < b; ++v) out.push_back(v);
    return out;
  }
  if (set->name == "nbrs" || set->name == "lower_nbrs" ||
      set->name == "children") {
    if (set->args.size() != 1) {
      throw ExprError(set->name + "(j) takes 1 arg");
    }
    const Topology& topo = require_topo(env, set->name.c_str());
    const int j = check_node(topo, eval_index_expr(set->args[0], env),
                             set->name.c_str());
    if (set->name == "children") {
      if (topo.kind != Topology::Kind::kTree) {
        throw ExprError("children(j) requires a tree topology");
      }
      for (int c : topo.children[static_cast<std::size_t>(j)]) {
        out.push_back(c);
      }
      return out;
    }
    for (int k : topo.nbrs[static_cast<std::size_t>(j)]) {
      if (set->name == "lower_nbrs" && k >= j) continue;
      out.push_back(k);
    }
    return out;
  }
  throw ExprError("unknown comprehension set '" + set->name + "'");
}

CompiledExpr compile_comprehension(const ExprNode& node,
                                   const CompileEnv& env) {
  const std::vector<long long> values = eval_set(node.args[0], env);
  std::vector<CompiledExpr> bodies;
  bodies.reserve(values.size());
  CompileEnv inner = env;
  for (long long v : values) {
    inner.binders[node.binder] = v;
    bodies.push_back(compile_expr(node.args[1], inner));
  }

  const std::string& kind = node.name;
  auto fold = [&](Value init, auto&& combine,
                  auto&& early) -> CompiledExpr {
    // Constant-fold what we can; keep the rest for runtime.
    std::vector<CompiledExpr> dynamic;
    long long acc = init;
    for (const CompiledExpr& b : bodies) {
      if (b.is_const) {
        acc = combine(acc, b.value);
        if (early(acc)) return make_const(acc);
      } else {
        dynamic.push_back(b);
      }
    }
    if (dynamic.empty()) return make_const(acc);
    CompiledExpr c;
    c.reads = union_reads(dynamic);
    tabulate_operands(env, c.reads, dynamic);
    c.fn = [acc, dynamic = std::move(dynamic), combine,
            early](const State& s) {
      long long r = acc;
      for (const CompiledExpr& b : dynamic) {
        r = combine(r, b.eval(s));
        if (early(r)) break;
      }
      return static_cast<Value>(r);
    };
    return c;
  };

  if (kind == "all") {
    return fold(
        1, [](long long a, long long b) { return (a != 0 && b != 0) ? 1 : 0; },
        [](long long a) { return a == 0; });
  }
  if (kind == "any") {
    return fold(
        0, [](long long a, long long b) { return (a != 0 || b != 0) ? 1 : 0; },
        [](long long a) { return a != 0; });
  }
  if (kind == "sum") {
    return fold(0, [](long long a, long long b) { return a + b; },
                [](long long) { return false; });
  }
  if (kind == "count") {
    return fold(0,
                [](long long a, long long b) { return a + (b != 0 ? 1 : 0); },
                [](long long) { return false; });
  }
  if (kind == "min" || kind == "max") {
    if (bodies.empty()) {
      throw ExprError(kind + " comprehension over an empty set");
    }
    const bool is_min = kind == "min";
    bool all_const = true;
    for (const CompiledExpr& b : bodies) all_const = all_const && b.is_const;
    if (all_const) {
      long long acc = bodies[0].value;
      for (const CompiledExpr& b : bodies) {
        acc = is_min ? std::min<long long>(acc, b.value)
                     : std::max<long long>(acc, b.value);
      }
      return make_const(acc);
    }
    CompiledExpr c;
    c.reads = union_reads(bodies);
    tabulate_operands(env, c.reads, bodies);
    c.fn = [bodies = std::move(bodies), is_min](const State& s) {
      Value acc = bodies[0].eval(s);
      for (std::size_t i = 1; i < bodies.size(); ++i) {
        const Value v = bodies[i].eval(s);
        acc = is_min ? std::min(acc, v) : std::max(acc, v);
      }
      return acc;
    };
    return c;
  }
  if (kind == "first") {
    // Value of the binder at the first element whose body holds; -1 when
    // none does.
    CompiledExpr c;
    c.reads = union_reads(bodies);
    tabulate_operands(env, c.reads, bodies);
    c.fn = [values, bodies = std::move(bodies)](const State& s) -> Value {
      for (std::size_t i = 0; i < bodies.size(); ++i) {
        if (bodies[i].eval(s) != 0) return static_cast<Value>(values[i]);
      }
      return -1;
    };
    return c;
  }
  if (kind == "mex") {
    // Smallest value >= 0 different from every element's body value.
    return compile_mex(std::move(bodies), env);
  }
  throw ExprError("unknown comprehension '" + kind + "'");
}

CompiledExpr compile_call(const ExprNode& node, const CompileEnv& env) {
  const std::string& fn = node.name;
  // Index-time topology accessors: all arguments must fold.
  if (fn == "next" || fn == "prev" || fn == "parent" || fn == "deg" ||
      fn == "degree" || fn == "root" || fn == "nbr" || fn == "backidx" ||
      fn == "nproc") {
    const Topology& topo = require_topo(env, fn.c_str());
    if (fn == "root") {
      if (topo.kind != Topology::Kind::kTree) {
        throw ExprError("root() requires a tree topology");
      }
      return make_const(topo.root);
    }
    if (fn == "nproc") return make_const(topo.n);
    if (node.args.empty()) throw ExprError(fn + " requires arguments");
    const long long j0 = eval_index_expr(node.args[0], env);
    const int j = check_node(topo, j0, fn.c_str());
    if (fn == "next" || fn == "prev") {
      if (topo.kind != Topology::Kind::kRing) {
        throw ExprError(fn + "(j) requires a ring topology");
      }
      return make_const(fn == "next" ? (j + 1) % topo.n
                                     : (j - 1 + topo.n) % topo.n);
    }
    if (fn == "parent") {
      if (topo.kind != Topology::Kind::kTree) {
        throw ExprError("parent(j) requires a tree topology");
      }
      return make_const(topo.parent[static_cast<std::size_t>(j)]);
    }
    if (fn == "deg" || fn == "degree") {
      return make_const(
          static_cast<long long>(topo.nbrs[static_cast<std::size_t>(j)].size()));
    }
    // nbr(j, i) / backidx(j, i)
    if (node.args.size() != 2) throw ExprError(fn + "(j, i) takes 2 args");
    const long long i = eval_index_expr(node.args[1], env);
    const auto& adj = topo.nbrs[static_cast<std::size_t>(j)];
    if (i < 0 || i >= static_cast<long long>(adj.size())) {
      throw ExprError(fn + "(" + std::to_string(j) + ", " + std::to_string(i) +
                      "): adjacency index out of range");
    }
    const int k = adj[static_cast<std::size_t>(i)];
    if (fn == "nbr") return make_const(k);
    // backidx: position of j in k's adjacency list.
    const auto& back = topo.nbrs[static_cast<std::size_t>(k)];
    const auto it = std::find(back.begin(), back.end(), j);
    if (it == back.end()) {
      throw ExprError("backidx: topology adjacency is not symmetric");
    }
    return make_const(static_cast<long long>(it - back.begin()));
  }

  // State-level n-ary functions.
  if (fn == "min" || fn == "max" || fn == "mex") {
    if (node.args.empty()) throw ExprError(fn + "() requires arguments");
    std::vector<CompiledExpr> args;
    args.reserve(node.args.size());
    bool all_const = true;
    for (const ExprPtr& a : node.args) {
      args.push_back(compile_expr(a, env));
      all_const = all_const && args.back().is_const;
    }
    if (fn == "mex") {
      if (all_const) {
        return make_const(mex_of(
            args.size(), [&](std::size_t i) { return args[i].value; }));
      }
      return compile_mex(std::move(args), env);
    }
    if (all_const) {
      long long acc = args[0].value;
      for (const CompiledExpr& a : args) {
        acc = fn == "min" ? std::min<long long>(acc, a.value)
                          : std::max<long long>(acc, a.value);
      }
      return make_const(acc);
    }
    CompiledExpr c;
    c.reads = union_reads(args);
    tabulate_operands(env, c.reads, args);
    const bool is_min = fn == "min";
    c.fn = [args = std::move(args), is_min](const State& s) {
      Value acc = args[0].eval(s);
      for (std::size_t i = 1; i < args.size(); ++i) {
        const Value v = args[i].eval(s);
        acc = is_min ? std::min(acc, v) : std::max(acc, v);
      }
      return acc;
    };
    return c;
  }
  throw ExprError("unknown function '" + fn + "'");
}

}  // namespace

ExprPtr parse_expr(const std::string& text) {
  return ExprParser(text).parse();
}

CompiledExpr compile_expr(const ExprPtr& node, const CompileEnv& env) {
  if (node == nullptr) throw ExprError("null expression");
  switch (node->kind) {
    case ExprNode::Kind::kLit:
      return make_const(node->lit);

    case ExprNode::Kind::kIdent: {
      const std::string& name = node->name;
      const auto binder = env.binders.find(name);
      if (binder != env.binders.end()) return make_const(binder->second);
      if (env.params != nullptr) {
        const auto param = env.params->find(name);
        if (param != env.params->end()) return make_const(param->second);
      }
      if (env.names != nullptr) {
        const auto id = env.names->find(name);
        if (id != env.names->end()) return make_var_read(id->second);
      }
      if (env.families != nullptr && env.families->count(name) > 0) {
        throw ExprError("'" + name +
                        "' is a per-process variable family; subscript it "
                        "(e.g. " +
                        name + "[j])");
      }
      throw ExprError("unknown identifier '" + name + "'");
    }

    case ExprNode::Kind::kSubscript: {
      if (env.families == nullptr) {
        throw ExprError("no variable families in scope for '" + node->name +
                        "[...]'");
      }
      const auto family = env.families->find(node->name);
      if (family == env.families->end()) {
        throw ExprError("unknown variable family '" + node->name + "'");
      }
      const long long index = eval_index_expr(node->args[0], env);
      if (index < 0 ||
          index >= static_cast<long long>(family->second.size())) {
        throw ExprError("'" + node->name + "[" + std::to_string(index) +
                        "]': index out of range [0, " +
                        std::to_string(family->second.size()) + ")");
      }
      return make_var_read(family->second[static_cast<std::size_t>(index)]);
    }

    case ExprNode::Kind::kCall:
      return compile_call(*node, env);

    case ExprNode::Kind::kComprehension:
      return compile_comprehension(*node, env);

    case ExprNode::Kind::kUnary: {
      CompiledExpr a = compile_expr(node->args[0], env);
      const bool is_not = node->name == "!";
      if (a.is_const) {
        return make_const(is_not ? (a.value == 0 ? 1 : 0) : -a.value);
      }
      CompiledExpr c;
      c.reads = a.reads;
      c.fn = [a = std::move(a), is_not](const State& s) -> Value {
        const Value v = a.eval(s);
        return is_not ? (v == 0 ? 1 : 0) : static_cast<Value>(-v);
      };
      return c;
    }

    case ExprNode::Kind::kBinary: {
      // Folds args[0] ops[0] args[1] ... left to right into one flat
      // closure, constant-folding each link exactly as if the chain were
      // nested binary nodes, so no chain length deepens the stack here or
      // at evaluation.
      struct Link {
        BinaryFn fn;
        CompiledExpr rhs;
      };
      CompiledExpr first = compile_expr(node->args[0], env);
      std::vector<Link> links;  // the non-constant tail after `first`
      ReadUnion reads;
      reads.add(first.reads);
      for (std::size_t i = 1; i < node->args.size(); ++i) {
        // Short-circuit folding before compiling the right-hand side would
        // skip its name resolution; compile every operand so typos always
        // surface.
        CompiledExpr b = compile_expr(node->args[i], env);
        const std::string& op = node->ops[i - 1];
        const BinaryFn fn = binary_fn(op);
        const bool folded = links.empty() && first.is_const;
        if (folded && b.is_const) {
          first = make_const(fn(first.value, b.value));
        } else if (op == "&&" && ((folded && first.value == 0) ||
                                  (b.is_const && b.value == 0))) {
          first = make_const(0);
          links.clear();
          reads.clear();
        } else if (op == "||" && ((folded && first.value != 0) ||
                                  (b.is_const && b.value != 0))) {
          first = make_const(1);
          links.clear();
          reads.clear();
        } else {
          reads.add(b.reads);
          links.push_back({fn, std::move(b)});
        }
      }
      if (links.empty()) return first;
      CompiledExpr c;
      c.reads = reads.take();
      if (too_wide(env, c.reads)) {
        env.tables->tabulate(first);
        for (Link& link : links) env.tables->tabulate(link.rhs);
      }
      c.fn = [first = std::move(first),
              links = std::move(links)](const State& s) {
        Value v = first.eval(s);
        for (const Link& link : links) {
          v = static_cast<Value>(link.fn(v, link.rhs.eval(s)));
        }
        return v;
      };
      return c;
    }

    case ExprNode::Kind::kTernary: {
      CompiledExpr cond = compile_expr(node->args[0], env);
      if (cond.is_const) {
        // Index-time branch selection: only the taken branch is compiled,
        // so per-process expansions can guard topology accessors (e.g.
        // `j == root() ? 0 : dist[parent(j)]`).
        return compile_expr(cond.value != 0 ? node->args[1] : node->args[2],
                            env);
      }
      CompiledExpr then = compile_expr(node->args[1], env);
      CompiledExpr otherwise = compile_expr(node->args[2], env);
      CompiledExpr c;
      ReadUnion reads;
      reads.add(cond.reads);
      reads.add(then.reads);
      reads.add(otherwise.reads);
      c.reads = reads.take();
      if (too_wide(env, c.reads)) {
        for (CompiledExpr* e : {&cond, &then, &otherwise}) {
          env.tables->tabulate(*e);
        }
      }
      c.fn = [cond = std::move(cond), then = std::move(then),
              otherwise = std::move(otherwise)](const State& s) {
        return cond.eval(s) != 0 ? then.eval(s) : otherwise.eval(s);
      };
      return c;
    }
  }
  throw ExprError("corrupt expression node");
}

long long eval_index_expr(const ExprPtr& node, const CompileEnv& env) {
  const CompiledExpr c = compile_expr(node, env);
  if (!c.is_const) {
    throw ExprError(
        "expression must be a compile-time constant here (it reads program "
        "variables)");
  }
  return c.value;
}

long long eval_index_expr(const std::string& text, const CompileEnv& env) {
  return eval_index_expr(parse_expr(text), env);
}

}  // namespace nonmask::spec
