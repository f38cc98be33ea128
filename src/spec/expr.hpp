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
//  * state time — what remains compiles to a flat postfix bytecode over
//    core::State (see `Op`), run by one interpreter loop with a value
//    stack sized at compile time, with the referenced VarIds collected in
//    first-occurrence order (the derived read set of actions and the
//    support of constraints).
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
// Booleans are ints (0 = false); comparisons yield 0/1. Every operator
// computes in 64 bits and wraps its result to the int32 Value, at index
// time and at state time alike. `/` and `%` by zero evaluate to 0 (total
// semantics, documented in docs/SPEC.md).
// Identifiers may contain '.' after the first character, so fully expanded
// specs can reference per-process instances like `x.3` or `env.noise`
// directly. Comprehensions — `all|any|sum|count|min|max|first|mex(k : SET,
// BODY)` over `procs()`, `range(a,b)`, `nbrs(j)`, `lower_nbrs(j)`,
// `children(j)` — are unrolled at expansion time over the topology.
#pragma once

#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/program.hpp"
#include "core/state.hpp"
#include "core/variable.hpp"

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
    kBinary,         // name is the operator, args[0], args[1]
    kTernary,        // args[0] ? args[1] : args[2]
    kComprehension,  // name(binder : args[0], args[1])
  };
  Kind kind = Kind::kLit;
  long long lit = 0;
  std::string name;
  std::string binder;
  std::vector<ExprPtr> args;
};

/// Parse one expression; the whole string must be consumed. Throws
/// ExprError with a character position on malformed input.
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
  /// Program under construction: full variable names resolve here.
  const Program* program = nullptr;
  /// Per-process variable families: `x[3]` resolves through this map.
  const std::unordered_map<std::string, std::vector<VarId>>* families =
      nullptr;
};

/// Opcodes of the state-time bytecode. A program is postfix: every
/// instruction pops its stack operands and pushes one result, so a whole
/// expression leaves exactly one value. `a` and `b` are the instruction's
/// immediates.
enum class Op : std::uint8_t {
  kConst,          ///< push a
  kLoad,           ///< push s[a]
  kNeg,            ///< top = -top
  kNot,            ///< top = top == 0
  kSelect,         ///< pop c, t, e; push c != 0 ? t : e (branch-free)
  kJumpIfZero,     ///< pop c; if c == 0 jump to instruction a
  kJumpIfNonzero,  ///< pop c; if c != 0 jump to instruction a
  kJump,           ///< jump to instruction a
  // n-ary reductions over the top a values (in push order), popped and
  // replaced by the result. sum and count accumulate in 64 bits.
  kSum,
  kCount,
  kAll,
  kAny,
  kMin,
  kMax,
  kMex,
  kFirst,  ///< pool[b + i] for the first nonzero value i, else -1
  /// First binary opcode. Binary opcode = kBinary + 9 * op + 3 * lhs + rhs:
  /// `op` indexes the operator table in expr.cpp, and each operand comes
  /// from the stack (0), variable s[a] or s[b] (1), or constant a or b (2).
  /// Stack operands are popped, left below right.
  kBinary,
};

/// One bytecode instruction: an opcode and its two immediates.
struct Instr {
  Op op = Op::kConst;
  std::int32_t a = 0;
  std::int32_t b = 0;
};

/// A compiled state expression: either a constant or a bytecode program,
/// plus the VarIds it reads in first-occurrence order (deduplicated).
struct CompiledExpr {
  bool is_const = false;
  Value value = 0;
  std::vector<Instr> code;
  std::vector<Value> pool;      ///< kFirst's binder values
  std::uint32_t max_stack = 0;  ///< deepest value stack `code` reaches
  std::vector<VarId> reads;

  Value eval(const State& s) const { return is_const ? value : run(s); }

  /// Run `code` against `s`. Allocates nothing: the value stack lives on
  /// the C++ stack, or for very deep programs in a per-thread buffer that
  /// only ever grows.
  Value run(const State& s) const;
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
