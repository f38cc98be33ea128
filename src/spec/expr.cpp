#include "spec/expr.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <unordered_set>
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

  ExprPtr ternary() {
    ExprPtr cond = logical_or();
    if (!is_op(lex_.peek(), "?")) return cond;
    lex_.take();
    ExprPtr then = ternary();
    expect_op(":");
    ExprPtr otherwise = ternary();
    ExprNode n;
    n.kind = ExprNode::Kind::kTernary;
    n.args = {std::move(cond), std::move(then), std::move(otherwise)};
    return node(std::move(n));
  }

  ExprPtr binary_chain(ExprPtr (ExprParser::*sub)(),
                       std::initializer_list<const char*> ops) {
    ExprPtr lhs = (this->*sub)();
    while (true) {
      const Token& t = lex_.peek();
      bool matched = false;
      for (const char* op : ops) {
        if (is_op(t, op)) {
          lex_.take();
          ExprNode n;
          n.kind = ExprNode::Kind::kBinary;
          n.name = op;
          n.args = {std::move(lhs), (this->*sub)()};
          lhs = node(std::move(n));
          matched = true;
          break;
        }
      }
      if (!matched) return lhs;
    }
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
        n.name = op;
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
      ExprNode n;
      n.kind = ExprNode::Kind::kUnary;
      n.name = t.text;
      n.args = {unary()};
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
};

// --- operator table -------------------------------------------------------

// Every binary operator: name, token, and result over the 64-bit operands
// a and b. Constant folding and the interpreter both go through apply(),
// so index time and state time cannot disagree.
#define NONMASK_SPEC_BINARY_OPS(X)  \
  X(kAdd, "+", a + b)               \
  X(kSub, "-", a - b)               \
  X(kMul, "*", a * b)               \
  X(kDiv, "/", b == 0 ? 0 : a / b)  \
  X(kMod, "%", b == 0 ? 0 : a % b)  \
  X(kEq, "==", a == b)              \
  X(kNe, "!=", a != b)              \
  X(kLt, "<", a < b)                \
  X(kLe, "<=", a <= b)              \
  X(kGt, ">", a > b)                \
  X(kGe, ">=", a >= b)              \
  X(kAnd, "&&", a != 0 && b != 0)   \
  X(kOr, "||", a != 0 || b != 0)

enum class BinOp : std::uint8_t {
#define NONMASK_ENUM(name, token, expr) name,
  NONMASK_SPEC_BINARY_OPS(NONMASK_ENUM)
#undef NONMASK_ENUM
};

/// The operator's result, wrapped to Value. Operands are Values, so the
/// 64-bit arithmetic itself never overflows.
inline Value apply(BinOp op, long long a, long long b) {
  switch (op) {
#define NONMASK_APPLY(name, token, expr) \
  case BinOp::name:                      \
    return static_cast<Value>(expr);
    NONMASK_SPEC_BINARY_OPS(NONMASK_APPLY)
#undef NONMASK_APPLY
  }
  return 0;
}

BinOp binop_from_token(const std::string& token) {
#define NONMASK_TOKEN(name, tok, expr) \
  if (token == tok) return BinOp::name;
  NONMASK_SPEC_BINARY_OPS(NONMASK_TOKEN)
#undef NONMASK_TOKEN
  throw ExprError("unknown operator '" + token + "'");
}

bool is_boolean(BinOp op) {
  return op != BinOp::kAdd && op != BinOp::kSub && op != BinOp::kMul &&
         op != BinOp::kDiv && op != BinOp::kMod;
}

Value negate(Value v) { return static_cast<Value>(-static_cast<long long>(v)); }

Value mex(const Value* values, std::size_t n) {
  for (Value v = 0;; ++v) {
    if (std::find(values, values + n, v) == values + n) return v;
  }
}

// Where a binary instruction takes each operand from.
enum Source : std::uint8_t { kFromStack = 0, kFromVar = 1, kFromConst = 2 };

constexpr std::uint8_t binary_code(BinOp op, Source lhs, Source rhs) {
  return static_cast<std::uint8_t>(static_cast<int>(Op::kBinary) +
                                   9 * static_cast<int>(op) + 3 * lhs + rhs);
}

constexpr std::uint8_t code_of(Op op) { return static_cast<std::uint8_t>(op); }

// --- compiler -------------------------------------------------------------

/// A compiled subexpression. Constants and single variable reads are
/// left unemitted, so the parent can fold them or fuse them into its own
/// instruction; anything else has already pushed its value.
struct Operand {
  Source source = kFromStack;
  Value value = 0;  ///< kFromConst: the value; kFromVar: the VarId index
  bool boolean = false;  ///< known to evaluate to 0 or 1

  static Operand constant(long long v) {
    Operand o;
    o.source = kFromConst;
    o.value = static_cast<Value>(v);
    o.boolean = o.value == 0 || o.value == 1;
    return o;
  }
  static Operand stack(bool boolean) {
    Operand o;
    o.boolean = boolean;
    return o;
  }
  bool is_const() const { return source == kFromConst; }
};

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

/// Index-time topology accessors; every argument must fold.
long long topology_call(const ExprNode& node, const CompileEnv& env) {
  const std::string& fn = node.name;
  const Topology& topo = require_topo(env, fn.c_str());
  if (fn == "root") {
    if (topo.kind != Topology::Kind::kTree) {
      throw ExprError("root() requires a tree topology");
    }
    return topo.root;
  }
  if (fn == "nproc") return topo.n;
  if (node.args.empty()) throw ExprError(fn + " requires arguments");
  const long long j0 = eval_index_expr(node.args[0], env);
  const int j = check_node(topo, j0, fn.c_str());
  if (fn == "next" || fn == "prev") {
    if (topo.kind != Topology::Kind::kRing) {
      throw ExprError(fn + "(j) requires a ring topology");
    }
    return fn == "next" ? (j + 1) % topo.n : (j - 1 + topo.n) % topo.n;
  }
  if (fn == "parent") {
    if (topo.kind != Topology::Kind::kTree) {
      throw ExprError("parent(j) requires a tree topology");
    }
    return topo.parent[static_cast<std::size_t>(j)];
  }
  if (fn == "deg" || fn == "degree") {
    return static_cast<long long>(
        topo.nbrs[static_cast<std::size_t>(j)].size());
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
  if (fn == "nbr") return k;
  // backidx: position of j in k's adjacency list.
  const auto& back = topo.nbrs[static_cast<std::size_t>(k)];
  const auto it = std::find(back.begin(), back.end(), j);
  if (it == back.end()) {
    throw ExprError("backidx: topology adjacency is not symmetric");
  }
  return static_cast<long long>(it - back.begin());
}

/// Compiles one expression into a single growing program, bottom-up: each
/// node appends its instructions after its children's, so compilation is
/// linear in the expanded expression. A node that folds to a constant
/// rolls the program, the read set, and the constant pool back to where
/// it started.
class Emitter {
 public:
  Operand compile(const ExprNode& node, const CompileEnv& env);

  CompiledExpr finish(const Operand& result) {
    CompiledExpr out;
    if (result.is_const()) {
      out.is_const = true;
      out.value = result.value;
      return out;
    }
    push(result);
    out.code = std::move(code_);
    out.pool = std::move(pool_);
    out.max_stack = max_depth_;
    out.reads = std::move(reads_);
    return out;
  }

 private:
  struct Mark {
    std::size_t code, reads, pool;
    std::uint32_t depth;
  };

  Mark mark() const {
    return {code_.size(), reads_.size(), pool_.size(), depth_};
  }

  void rollback(const Mark& m) {
    code_.resize(m.code);
    for (std::size_t i = m.reads; i < reads_.size(); ++i) {
      seen_.erase(reads_[i].index());
    }
    reads_.resize(m.reads);
    pool_.resize(m.pool);
    depth_ = m.depth;
  }

  /// Append one instruction that pops `pops` values and pushes one.
  std::size_t emit(Op op, std::int32_t a, std::int32_t b, std::uint32_t pops,
                   std::uint32_t pushes = 1) {
    code_.push_back({op, a, b});
    depth_ = depth_ - pops + pushes;
    max_depth_ = std::max(max_depth_, depth_);
    return code_.size() - 1;
  }

  void push(const Operand& o) {
    if (o.source == kFromVar) emit(Op::kLoad, o.value, 0, 0);
    if (o.source == kFromConst) emit(Op::kConst, o.value, 0, 0);
  }

  Operand read(VarId id) {
    if (seen_.insert(id.index()).second) reads_.push_back(id);
    Operand o;
    o.source = kFromVar;
    o.value = static_cast<Value>(id.index());
    return o;
  }

  Operand binary(const ExprNode& node, const CompileEnv& env);
  Operand ternary(const ExprNode& node, const CompileEnv& env);
  Operand reduction(const std::string& kind, const std::vector<Operand>& args,
                    const Mark& start, std::int32_t pool_offset);

  std::vector<Instr> code_;
  std::vector<VarId> reads_;
  // VarId indices already in reads_. A set, not a vector indexed by VarId:
  // that costs each expression O(highest id read), so O(n^2) on n-process
  // specs.
  std::unordered_set<std::uint32_t> seen_;
  std::vector<Value> pool_;
  std::uint32_t depth_ = 0;
  std::uint32_t max_depth_ = 0;
};

Operand Emitter::binary(const ExprNode& node, const CompileEnv& env) {
  const Mark start = mark();
  const Operand a = compile(*node.args[0], env);
  // Short-circuit folding before compiling the right-hand side would skip
  // its name resolution; compile both so typos always surface.
  const Operand b = compile(*node.args[1], env);
  const BinOp op = binop_from_token(node.name);
  if (a.is_const() && b.is_const()) {
    return Operand::constant(apply(op, a.value, b.value));
  }
  if (op == BinOp::kAnd && ((a.is_const() && a.value == 0) ||
                            (b.is_const() && b.value == 0))) {
    rollback(start);
    return Operand::constant(0);
  }
  if (op == BinOp::kOr && ((a.is_const() && a.value != 0) ||
                           (b.is_const() && b.value != 0))) {
    rollback(start);
    return Operand::constant(1);
  }
  const std::uint32_t pops = (a.source == kFromStack ? 1u : 0u) +
                             (b.source == kFromStack ? 1u : 0u);
  emit(static_cast<Op>(binary_code(op, a.source, b.source)), a.value,
       b.value, pops);
  return Operand::stack(is_boolean(op));
}

Operand Emitter::ternary(const ExprNode& node, const CompileEnv& env) {
  const Operand cond = compile(*node.args[0], env);
  if (cond.is_const()) {
    // Index-time branch selection: only the taken branch is compiled, so
    // per-process expansions can guard topology accessors (e.g.
    // `j == root() ? 0 : dist[parent(j)]`).
    return compile(*node.args[cond.value != 0 ? 1 : 2], env);
  }
  push(cond);
  const std::size_t branch = emit(Op::kJumpIfZero, 0, 0, 1, 0);
  const std::uint32_t base = depth_;
  const Operand then = compile(*node.args[1], env);
  const bool boolean_arms = then.boolean;
  if (then.source != kFromStack) {
    // The then-arm emitted nothing, so the else-arm's code follows the
    // branch directly.
    const Operand otherwise = compile(*node.args[2], env);
    const bool boolean = boolean_arms && otherwise.boolean;
    if (otherwise.source != kFromStack) {
      code_.resize(branch);
      depth_ = base + 1;
      if (cond.boolean && then.is_const() && then.value == 1 &&
          otherwise.is_const() && otherwise.value == 0) {
        return Operand::stack(true);  // `c ? 1 : 0` is c itself
      }
      push(then);
      push(otherwise);
      emit(Op::kSelect, 0, 0, 3);
      return Operand::stack(boolean);
    }
    code_[branch].op = Op::kJumpIfNonzero;
    const std::size_t skip = emit(Op::kJump, 0, 0, 0, 0);
    code_[branch].a = static_cast<std::int32_t>(code_.size());
    depth_ = base;
    push(then);
    code_[skip].a = static_cast<std::int32_t>(code_.size());
    return Operand::stack(boolean);
  }
  const std::size_t skip = emit(Op::kJump, 0, 0, 0, 0);
  code_[branch].a = static_cast<std::int32_t>(code_.size());
  depth_ = base;
  const Operand otherwise = compile(*node.args[2], env);
  push(otherwise);
  code_[skip].a = static_cast<std::int32_t>(code_.size());
  return Operand::stack(boolean_arms && otherwise.boolean);
}

/// min/max/mex calls and every comprehension: `args` have all been pushed
/// since `start`. Folds to a constant when every argument is constant, or
/// for all/any on an absorbing constant; otherwise emits one n-ary op.
/// first and mex comprehensions never fold: they stay state-time programs
/// even over constant bodies.
Operand Emitter::reduction(const std::string& kind,
                           const std::vector<Operand>& args,
                           const Mark& start, std::int32_t pool_offset) {
  bool all_const = true;
  bool const_zero = false;
  bool const_nonzero = false;
  for (const Operand& a : args) {
    all_const = all_const && a.is_const();
    const_zero = const_zero || (a.is_const() && a.value == 0);
    const_nonzero = const_nonzero || (a.is_const() && a.value != 0);
  }
  const auto n = static_cast<std::int32_t>(args.size());
  const auto nary = [&](Op op, bool boolean) {
    emit(op, n, pool_offset, static_cast<std::uint32_t>(n));
    return Operand::stack(boolean);
  };
  const auto fold = [&](long long v) {
    rollback(start);
    return Operand::constant(v);
  };
  if (kind == "all") {
    if (const_zero) return fold(0);
    return all_const ? fold(1) : nary(Op::kAll, true);
  }
  if (kind == "any") {
    if (const_nonzero) return fold(1);
    return all_const ? fold(0) : nary(Op::kAny, true);
  }
  if (kind == "sum" || kind == "count") {
    const bool is_sum = kind == "sum";
    if (!all_const) return nary(is_sum ? Op::kSum : Op::kCount, false);
    long long acc = 0;
    for (const Operand& a : args) acc += is_sum ? a.value : (a.value != 0);
    return fold(acc);
  }
  if (kind == "min" || kind == "max") {
    const bool is_min = kind == "min";
    if (!all_const) return nary(is_min ? Op::kMin : Op::kMax, false);
    Value acc = args[0].value;
    for (const Operand& a : args) {
      acc = is_min ? std::min(acc, a.value) : std::max(acc, a.value);
    }
    return fold(acc);
  }
  if (kind == "first") return nary(Op::kFirst, false);
  return nary(Op::kMex, false);
}

Operand Emitter::compile(const ExprNode& node, const CompileEnv& env) {
  switch (node.kind) {
    case ExprNode::Kind::kLit:
      return Operand::constant(node.lit);

    case ExprNode::Kind::kIdent: {
      const std::string& name = node.name;
      const auto binder = env.binders.find(name);
      if (binder != env.binders.end()) return Operand::constant(binder->second);
      if (env.params != nullptr) {
        const auto param = env.params->find(name);
        if (param != env.params->end()) return Operand::constant(param->second);
      }
      if (env.program != nullptr) {
        const VarId id = env.program->find_variable(name);
        if (id.valid()) return read(id);
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
        throw ExprError("no variable families in scope for '" + node.name +
                        "[...]'");
      }
      const auto family = env.families->find(node.name);
      if (family == env.families->end()) {
        throw ExprError("unknown variable family '" + node.name + "'");
      }
      const long long index = eval_index_expr(node.args[0], env);
      if (index < 0 ||
          index >= static_cast<long long>(family->second.size())) {
        throw ExprError("'" + node.name + "[" + std::to_string(index) +
                        "]': index out of range [0, " +
                        std::to_string(family->second.size()) + ")");
      }
      return read(family->second[static_cast<std::size_t>(index)]);
    }

    case ExprNode::Kind::kCall: {
      const std::string& fn = node.name;
      if (fn == "next" || fn == "prev" || fn == "parent" || fn == "deg" ||
          fn == "degree" || fn == "root" || fn == "nbr" || fn == "backidx" ||
          fn == "nproc") {
        return Operand::constant(topology_call(node, env));
      }
      if (fn != "min" && fn != "max" && fn != "mex") {
        throw ExprError("unknown function '" + fn + "'");
      }
      if (node.args.empty()) throw ExprError(fn + "() requires arguments");
      const Mark start = mark();
      std::vector<Operand> args;
      args.reserve(node.args.size());
      for (const ExprPtr& a : node.args) {
        args.push_back(compile(*a, env));
        push(args.back());
      }
      if (fn == "mex" && std::all_of(args.begin(), args.end(),
                                     [](const Operand& a) {
                                       return a.is_const();
                                     })) {
        std::vector<Value> values;
        for (const Operand& a : args) values.push_back(a.value);
        rollback(start);
        return Operand::constant(mex(values.data(), values.size()));
      }
      return reduction(fn, args, start, 0);
    }

    case ExprNode::Kind::kComprehension: {
      const std::vector<long long> values = eval_set(node.args[0], env);
      const Mark start = mark();
      CompileEnv inner = env;
      std::vector<Operand> bodies;
      bodies.reserve(values.size());
      for (long long v : values) {
        inner.binders[node.binder] = v;
        bodies.push_back(compile(*node.args[1], inner));
        push(bodies.back());
      }
      const std::string& kind = node.name;
      if (kind != "all" && kind != "any" && kind != "sum" &&
          kind != "count" && kind != "min" && kind != "max" &&
          kind != "first" && kind != "mex") {
        throw ExprError("unknown comprehension '" + kind + "'");
      }
      if ((kind == "min" || kind == "max") && bodies.empty()) {
        throw ExprError(kind + " comprehension over an empty set");
      }
      const auto pool_offset = static_cast<std::int32_t>(pool_.size());
      if (kind == "first") {
        // Value of the binder at the first element whose body holds.
        for (long long v : values) pool_.push_back(static_cast<Value>(v));
      }
      return reduction(kind, bodies, start, pool_offset);
    }

    case ExprNode::Kind::kUnary: {
      const Operand a = compile(*node.args[0], env);
      const bool is_not = node.name == "!";
      if (a.is_const()) {
        return Operand::constant(is_not ? (a.value == 0 ? 1 : 0)
                                        : negate(a.value));
      }
      push(a);
      emit(is_not ? Op::kNot : Op::kNeg, 0, 0, 1);
      return Operand::stack(is_not);
    }

    case ExprNode::Kind::kBinary:
      return binary(node, env);

    case ExprNode::Kind::kTernary:
      return ternary(node, env);
  }
  throw ExprError("corrupt expression node");
}

}  // namespace

Value CompiledExpr::run(const State& s) const {
  constexpr std::uint32_t kInlineStack = 256;
  // Not zeroed: a postfix program writes every slot before reading it.
  Value inline_stack[kInlineStack];
  Value* sp = inline_stack;
  if (max_stack > kInlineStack) {
    thread_local std::vector<Value> deep;
    if (deep.size() < max_stack) deep.resize(max_stack);
    sp = deep.data();
  }
  const Value* vars = s.values().data();
  const Instr* const begin = code.data();
  const Instr* const end = begin + code.size();
  for (const Instr* ip = begin; ip != end;) {
    const Instr& in = *ip++;
    switch (code_of(in.op)) {
      case code_of(Op::kConst): *sp++ = in.a; break;
      case code_of(Op::kLoad): *sp++ = vars[in.a]; break;
      case code_of(Op::kNeg): sp[-1] = negate(sp[-1]); break;
      case code_of(Op::kNot): sp[-1] = sp[-1] == 0 ? 1 : 0; break;
      case code_of(Op::kSelect):
        sp -= 2;
        sp[-1] = sp[-1] != 0 ? sp[0] : sp[1];
        break;
      case code_of(Op::kJumpIfZero):
        if (*--sp == 0) ip = begin + in.a;
        break;
      case code_of(Op::kJumpIfNonzero):
        if (*--sp != 0) ip = begin + in.a;
        break;
      case code_of(Op::kJump): ip = begin + in.a; break;
      case code_of(Op::kSum):
      case code_of(Op::kCount): {
        sp -= in.a;
        long long acc = 0;
        for (std::int32_t i = 0; i < in.a; ++i) {
          acc += in.op == Op::kSum ? sp[i] : (sp[i] != 0);
        }
        *sp++ = static_cast<Value>(acc);
        break;
      }
      case code_of(Op::kAll):
        sp -= in.a;
        *sp = std::find(sp, sp + in.a, 0) == sp + in.a ? 1 : 0;
        ++sp;
        break;
      case code_of(Op::kAny):
        sp -= in.a;
        *sp = std::find_if(sp, sp + in.a, [](Value v) { return v != 0; }) ==
                      sp + in.a
                  ? 0
                  : 1;
        ++sp;
        break;
      case code_of(Op::kMin):
      case code_of(Op::kMax): {
        sp -= in.a;
        Value acc = sp[0];
        for (std::int32_t i = 1; i < in.a; ++i) {
          acc = in.op == Op::kMin ? std::min(acc, sp[i]) : std::max(acc, sp[i]);
        }
        *sp++ = acc;
        break;
      }
      case code_of(Op::kMex):
        sp -= in.a;
        *sp = mex(sp, static_cast<std::size_t>(in.a));
        ++sp;
        break;
      case code_of(Op::kFirst): {
        sp -= in.a;
        Value found = -1;
        for (std::int32_t i = 0; i < in.a; ++i) {
          if (sp[i] != 0) {
            found = pool[static_cast<std::size_t>(in.b + i)];
            break;
          }
        }
        *sp++ = found;
        break;
      }
#define NONMASK_BINARY_CASES(name, token, expr)                            \
  case binary_code(BinOp::name, kFromStack, kFromStack):                   \
    --sp;                                                                  \
    sp[-1] = apply(BinOp::name, sp[-1], sp[0]);                            \
    break;                                                                 \
  case binary_code(BinOp::name, kFromStack, kFromVar):                     \
    sp[-1] = apply(BinOp::name, sp[-1], vars[in.b]);                       \
    break;                                                                 \
  case binary_code(BinOp::name, kFromStack, kFromConst):                   \
    sp[-1] = apply(BinOp::name, sp[-1], in.b);                             \
    break;                                                                 \
  case binary_code(BinOp::name, kFromVar, kFromStack):                     \
    sp[-1] = apply(BinOp::name, vars[in.a], sp[-1]);                       \
    break;                                                                 \
  case binary_code(BinOp::name, kFromConst, kFromStack):                   \
    sp[-1] = apply(BinOp::name, in.a, sp[-1]);                             \
    break;                                                                 \
  case binary_code(BinOp::name, kFromVar, kFromVar):                       \
    *sp++ = apply(BinOp::name, vars[in.a], vars[in.b]);                    \
    break;                                                                 \
  case binary_code(BinOp::name, kFromVar, kFromConst):                     \
    *sp++ = apply(BinOp::name, vars[in.a], in.b);                          \
    break;                                                                 \
  case binary_code(BinOp::name, kFromConst, kFromVar):                     \
    *sp++ = apply(BinOp::name, in.a, vars[in.b]);                          \
    break;
      NONMASK_SPEC_BINARY_OPS(NONMASK_BINARY_CASES)
#undef NONMASK_BINARY_CASES
      default:
        break;
    }
  }
  return sp[-1];
}

ExprPtr parse_expr(const std::string& text) {
  return ExprParser(text).parse();
}

CompiledExpr compile_expr(const ExprPtr& node, const CompileEnv& env) {
  if (node == nullptr) throw ExprError("null expression");
  Emitter emitter;
  const Operand result = emitter.compile(*node, env);
  return emitter.finish(result);
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

#undef NONMASK_SPEC_BINARY_OPS

}  // namespace nonmask::spec
