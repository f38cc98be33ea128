// Differential oracle for the spec expression bytecode: a tree-walking
// reference evaluator over ExprNode, written here independently of the
// compiler in src/spec/expr.cpp, must agree with compile_expr on
// constness, the read set (first-occurrence order), and the value at every
// sampled state. Two input sets, both with fixed seeds:
//  * seeded random expressions covering every operator, the ternary,
//    every comprehension kind and every n-ary call, on states that include
//    the extremes of the int32 Value domain;
//  * every index, guard, assignment, constraint, fault-span and S
//    expression of the shipped specs/*.json and of the emitted built-ins.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/program.hpp"
#include "spec/compile.hpp"
#include "spec/emit.hpp"
#include "spec/expr.hpp"
#include "spec/registry.hpp"
#include "spec/spec.hpp"
#include "util/rng.hpp"

namespace nonmask {
namespace {

using spec::CompileEnv;
using spec::ExprNode;
using spec::ExprPtr;
using spec::Topology;
using Kind = ExprNode::Kind;

constexpr Value kMin = std::numeric_limits<Value>::min();
constexpr Value kMax = std::numeric_limits<Value>::max();

// --- the reference walker -------------------------------------------------

struct RefError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

Value wrap(long long v) { return static_cast<Value>(v); }

/// What compile_expr must report before any state is seen.
struct Static {
  bool is_const = false;
  Value value = 0;
  std::vector<VarId> reads;
};

Static constant(long long v) {
  Static s;
  s.is_const = true;
  s.value = wrap(v);
  return s;
}

void merge(std::vector<VarId>& into, const std::vector<VarId>& from) {
  for (VarId id : from) {
    bool seen = false;
    for (VarId r : into) seen = seen || r == id;
    if (!seen) into.push_back(id);
  }
}

long long binop(const std::string& op, long long a, long long b) {
  if (op == "+") return a + b;
  if (op == "-") return a - b;
  if (op == "*") return a * b;
  if (op == "/") return b == 0 ? 0 : a / b;
  if (op == "%") return b == 0 ? 0 : a % b;
  if (op == "==") return a == b;
  if (op == "!=") return a != b;
  if (op == "<") return a < b;
  if (op == "<=") return a <= b;
  if (op == ">") return a > b;
  if (op == ">=") return a >= b;
  if (op == "&&") return a != 0 && b != 0;
  if (op == "||") return a != 0 || b != 0;
  throw RefError("operator " + op);
}

Value mex_of(const std::vector<Value>& values) {
  for (Value v = 0;; ++v) {
    bool used = false;
    for (Value u : values) used = used || u == v;
    if (!used) return v;
  }
}

bool is_topology_fn(const std::string& fn) {
  return fn == "next" || fn == "prev" || fn == "parent" || fn == "deg" ||
         fn == "degree" || fn == "root" || fn == "nbr" || fn == "backidx" ||
         fn == "nproc";
}

Static analyze(const ExprNode& n, const CompileEnv& env);

long long index_value(const ExprNode& n, const CompileEnv& env) {
  const Static s = analyze(n, env);
  if (!s.is_const) throw RefError("index expression reads state");
  return s.value;
}

const Topology& topo_of(const CompileEnv& env) {
  if (env.topo == nullptr || env.topo->kind == Topology::Kind::kNone) {
    throw RefError("no topology");
  }
  return *env.topo;
}

int node_index(const Topology& t, long long j) {
  if (j < 0 || j >= t.n) throw RefError("process out of range");
  return static_cast<int>(j);
}

long long topology_value(const ExprNode& n, const CompileEnv& env) {
  const Topology& t = topo_of(env);
  const bool ring = t.kind == Topology::Kind::kRing;
  const bool tree = t.kind == Topology::Kind::kTree;
  if (n.name == "nproc") return t.n;
  if (n.name == "root") {
    if (!tree) throw RefError("root needs a tree");
    return t.root;
  }
  if (n.args.empty()) throw RefError("missing argument");
  const int j = node_index(t, index_value(*n.args[0], env));
  const auto& adj = t.nbrs[static_cast<std::size_t>(j)];
  if (n.name == "next" || n.name == "prev") {
    if (!ring) throw RefError("next/prev need a ring");
    return n.name == "next" ? (j + 1) % t.n : (j + t.n - 1) % t.n;
  }
  if (n.name == "parent") {
    if (!tree) throw RefError("parent needs a tree");
    return t.parent[static_cast<std::size_t>(j)];
  }
  if (n.name == "deg" || n.name == "degree") {
    return static_cast<long long>(adj.size());
  }
  if (n.args.size() != 2) throw RefError("nbr/backidx take 2 args");
  const long long i = index_value(*n.args[1], env);
  if (i < 0 || i >= static_cast<long long>(adj.size())) {
    throw RefError("adjacency index out of range");
  }
  const int k = adj[static_cast<std::size_t>(i)];
  if (n.name == "nbr") return k;
  const auto& back = t.nbrs[static_cast<std::size_t>(k)];
  for (std::size_t p = 0; p < back.size(); ++p) {
    if (back[p] == j) return static_cast<long long>(p);
  }
  throw RefError("asymmetric adjacency");
}

std::vector<long long> set_values(const ExprNode& n, const CompileEnv& env) {
  if (n.kind != Kind::kCall) throw RefError("not a set");
  std::vector<long long> out;
  if (n.name == "procs") {
    for (int j = 0; j < topo_of(env).n; ++j) out.push_back(j);
  } else if (n.name == "range") {
    if (n.args.size() != 2) throw RefError("range takes 2 args");
    const long long lo = index_value(*n.args[0], env);
    const long long hi = index_value(*n.args[1], env);
    for (long long v = lo; v < hi; ++v) out.push_back(v);
  } else if (n.name == "nbrs" || n.name == "lower_nbrs" ||
             n.name == "children") {
    if (n.args.size() != 1) throw RefError("set takes 1 arg");
    const Topology& t = topo_of(env);
    const int j = node_index(t, index_value(*n.args[0], env));
    if (n.name == "children") {
      if (t.kind != Topology::Kind::kTree) throw RefError("children: tree");
      for (int c : t.children[static_cast<std::size_t>(j)]) out.push_back(c);
    } else {
      for (int k : t.nbrs[static_cast<std::size_t>(j)]) {
        if (n.name == "nbrs" || k < j) out.push_back(k);
      }
    }
  } else {
    throw RefError("unknown set");
  }
  return out;
}

/// The program variable an identifier or subscript names, or invalid when
/// it names a binder or parameter.
VarId variable_of(const ExprNode& n, const CompileEnv& env) {
  if (n.kind == Kind::kSubscript) {
    if (env.families == nullptr) throw RefError("no families");
    const auto family = env.families->find(n.name);
    if (family == env.families->end()) throw RefError("unknown family");
    const long long i = index_value(*n.args[0], env);
    if (i < 0 || i >= static_cast<long long>(family->second.size())) {
      throw RefError("family index out of range");
    }
    return family->second[static_cast<std::size_t>(i)];
  }
  if (env.binders.count(n.name) > 0) return VarId();
  if (env.params != nullptr && env.params->count(n.name) > 0) return VarId();
  if (env.program != nullptr) {
    const VarId id = env.program->find_variable(n.name);
    if (id.valid()) return id;
  }
  throw RefError("unknown identifier " + n.name);
}

long long scalar_of(const ExprNode& n, const CompileEnv& env) {
  const auto binder = env.binders.find(n.name);
  if (binder != env.binders.end()) return binder->second;
  return env.params->at(n.name);
}

std::vector<Static> bodies_of(const ExprNode& n, const CompileEnv& env,
                              const std::vector<long long>& values) {
  CompileEnv inner = env;
  std::vector<Static> out;
  for (long long v : values) {
    inner.binders[n.binder] = v;
    out.push_back(analyze(*n.args[1], inner));
  }
  return out;
}

/// Constness and reads under the language's folding rules: all-constant
/// operands fold, `&&`/`||` fold on an absorbing constant (dropping the
/// other side's reads), all/any comprehensions fold on an absorbing
/// constant body, and first/mex comprehensions never fold.
Static analyze(const ExprNode& n, const CompileEnv& env) {
  switch (n.kind) {
    case Kind::kLit:
      return constant(n.lit);
    case Kind::kIdent:
    case Kind::kSubscript: {
      const VarId id = variable_of(n, env);
      if (!id.valid()) return constant(scalar_of(n, env));
      Static s;
      s.reads = {id};
      return s;
    }
    case Kind::kCall: {
      if (is_topology_fn(n.name)) return constant(topology_value(n, env));
      if (n.name != "min" && n.name != "max" && n.name != "mex") {
        throw RefError("unknown function");
      }
      if (n.args.empty()) throw RefError("empty call");
      Static out;
      std::vector<Value> values;
      bool all_const = true;
      for (const ExprPtr& a : n.args) {
        const Static s = analyze(*a, env);
        all_const = all_const && s.is_const;
        values.push_back(s.value);
        merge(out.reads, s.reads);
      }
      if (!all_const) return out;
      if (n.name == "mex") return constant(mex_of(values));
      Value acc = values[0];
      for (Value v : values) {
        acc = n.name == "min" ? std::min(acc, v) : std::max(acc, v);
      }
      return constant(acc);
    }
    case Kind::kComprehension: {
      const std::vector<long long> values = set_values(*n.args[0], env);
      const std::vector<Static> bodies = bodies_of(n, env, values);
      const std::string& k = n.name;
      Static out;
      bool all_const = true;
      bool any_zero = false;
      bool any_nonzero = false;
      long long sum = 0;
      long long count = 0;
      for (const Static& b : bodies) {
        merge(out.reads, b.reads);
        all_const = all_const && b.is_const;
        if (!b.is_const) continue;
        any_zero = any_zero || b.value == 0;
        any_nonzero = any_nonzero || b.value != 0;
        sum += b.value;
        count += b.value != 0;
      }
      if (k == "first" || k == "mex") return out;
      if (k == "all") {
        if (any_zero) return constant(0);
        return all_const ? constant(1) : out;
      }
      if (k == "any") {
        if (any_nonzero) return constant(1);
        return all_const ? constant(0) : out;
      }
      if (k == "sum") return all_const ? constant(sum) : out;
      if (k == "count") return all_const ? constant(count) : out;
      if (k == "min" || k == "max") {
        if (bodies.empty()) throw RefError("min/max over an empty set");
        if (!all_const) return out;
        Value acc = bodies[0].value;
        for (const Static& b : bodies) {
          acc = k == "min" ? std::min(acc, b.value) : std::max(acc, b.value);
        }
        return constant(acc);
      }
      throw RefError("unknown comprehension");
    }
    case Kind::kUnary: {
      Static a = analyze(*n.args[0], env);
      if (!a.is_const) return a;
      return constant(n.name == "!" ? (a.value == 0)
                                    : -static_cast<long long>(a.value));
    }
    case Kind::kBinary: {
      const Static a = analyze(*n.args[0], env);
      const Static b = analyze(*n.args[1], env);
      if (a.is_const && b.is_const) {
        return constant(binop(n.name, a.value, b.value));
      }
      const bool a0 = a.is_const && a.value == 0;
      const bool b0 = b.is_const && b.value == 0;
      if (n.name == "&&" && (a0 || b0)) return constant(0);
      if (n.name == "||" && ((a.is_const && !a0) || (b.is_const && !b0))) {
        return constant(1);
      }
      binop(n.name, 0, 1);  // reject unknown operators
      Static out;
      out.reads = a.reads;
      merge(out.reads, b.reads);
      return out;
    }
    case Kind::kTernary: {
      const Static c = analyze(*n.args[0], env);
      if (c.is_const) return analyze(*n.args[c.value != 0 ? 1 : 2], env);
      Static out = c;
      merge(out.reads, analyze(*n.args[1], env).reads);
      merge(out.reads, analyze(*n.args[2], env).reads);
      return out;
    }
  }
  throw RefError("corrupt node");
}

/// The value at `s`, walking the tree; call only after analyze() passed.
Value walk(const ExprNode& n, const CompileEnv& env, const State& s) {
  switch (n.kind) {
    case Kind::kLit:
      return wrap(n.lit);
    case Kind::kIdent:
    case Kind::kSubscript: {
      const VarId id = variable_of(n, env);
      return id.valid() ? s.get(id) : wrap(scalar_of(n, env));
    }
    case Kind::kCall: {
      if (is_topology_fn(n.name)) return wrap(topology_value(n, env));
      std::vector<Value> values;
      for (const ExprPtr& a : n.args) values.push_back(walk(*a, env, s));
      if (n.name == "mex") return mex_of(values);
      Value acc = values[0];
      for (Value v : values) {
        acc = n.name == "min" ? std::min(acc, v) : std::max(acc, v);
      }
      return acc;
    }
    case Kind::kComprehension: {
      const std::vector<long long> set = set_values(*n.args[0], env);
      CompileEnv inner = env;
      std::vector<Value> values;
      for (long long v : set) {
        inner.binders[n.binder] = v;
        values.push_back(walk(*n.args[1], inner, s));
      }
      const std::string& k = n.name;
      if (k == "mex") return mex_of(values);
      if (k == "first") {
        for (std::size_t i = 0; i < values.size(); ++i) {
          if (values[i] != 0) return wrap(set[i]);
        }
        return -1;
      }
      if (k == "min" || k == "max") {
        Value acc = values[0];
        for (Value v : values) {
          acc = k == "min" ? std::min(acc, v) : std::max(acc, v);
        }
        return acc;
      }
      long long acc = k == "all" ? 1 : 0;
      for (Value v : values) {
        if (k == "all") acc = acc != 0 && v != 0;
        if (k == "any") acc = acc != 0 || v != 0;
        if (k == "sum") acc += v;
        if (k == "count") acc += v != 0;
      }
      return wrap(acc);
    }
    case Kind::kUnary: {
      const Value a = walk(*n.args[0], env, s);
      return n.name == "!" ? (a == 0 ? 1 : 0)
                           : wrap(-static_cast<long long>(a));
    }
    case Kind::kBinary:
      return wrap(binop(n.name, walk(*n.args[0], env, s),
                        walk(*n.args[1], env, s)));
    case Kind::kTernary:
      return walk(*n.args[walk(*n.args[0], env, s) != 0 ? 1 : 2], env, s);
  }
  throw RefError("corrupt node");
}

// --- comparison -----------------------------------------------------------

std::string show(const ExprNode& n) {
  switch (n.kind) {
    case Kind::kLit: return std::to_string(n.lit);
    case Kind::kIdent: return n.name;
    case Kind::kSubscript: return n.name + "[" + show(*n.args[0]) + "]";
    case Kind::kCall: {
      std::string out = n.name + "(";
      for (std::size_t i = 0; i < n.args.size(); ++i) {
        out += (i > 0 ? ", " : "") + show(*n.args[i]);
      }
      return out + ")";
    }
    case Kind::kComprehension:
      return n.name + "(" + n.binder + " : " + show(*n.args[0]) + ", " +
             show(*n.args[1]) + ")";
    case Kind::kUnary: return n.name + "(" + show(*n.args[0]) + ")";
    case Kind::kBinary:
      return "(" + show(*n.args[0]) + " " + n.name + " " + show(*n.args[1]) +
             ")";
    case Kind::kTernary:
      return "(" + show(*n.args[0]) + " ? " + show(*n.args[1]) + " : " +
             show(*n.args[2]) + ")";
  }
  return "?";
}

struct Tally {
  int compiled = 0;
  int rejected = 0;
  int state_dependent = 0;
  std::set<int> opcodes;  // every opcode some compiled program used
};

/// compile_expr against the reference: both reject, or both agree on
/// constness, reads, and the value at every state.
void check_against_reference(const ExprPtr& node, const CompileEnv& env,
                             const std::vector<State>& states, Tally& tally) {
  SCOPED_TRACE(show(*node));
  bool ref_rejects = false;
  Static expect;
  try {
    expect = analyze(*node, env);
  } catch (const RefError&) {
    ref_rejects = true;
  }
  spec::CompiledExpr got;
  bool rejects = false;
  try {
    got = spec::compile_expr(node, env);
  } catch (const spec::ExprError&) {
    rejects = true;
  }
  ASSERT_EQ(rejects, ref_rejects);
  if (rejects) {
    ++tally.rejected;
    return;
  }
  ++tally.compiled;
  ASSERT_EQ(got.is_const, expect.is_const);
  ASSERT_EQ(got.reads, expect.reads);
  if (got.is_const) {
    ASSERT_EQ(got.value, expect.value);
  } else {
    ++tally.state_dependent;
  }
  for (const spec::Instr& in : got.code) {
    tally.opcodes.insert(static_cast<int>(in.op));
  }
  for (const State& s : states) {
    ASSERT_EQ(got.eval(s), walk(*node, env, s));
  }
}

// --- random expressions ---------------------------------------------------

ExprPtr make(Kind kind, std::string name, std::vector<ExprPtr> args = {},
             long long lit = 0, std::string binder = "") {
  auto n = std::make_shared<ExprNode>();
  n->kind = kind;
  n->name = std::move(name);
  n->args = std::move(args);
  n->lit = lit;
  n->binder = std::move(binder);
  return n;
}

ExprPtr lit(long long v) { return make(Kind::kLit, "", {}, v); }

/// Random expressions over family x (one per process) and scalars y, z.
/// Mostly well-formed; the occasional out-of-range index or empty min/max
/// set checks that compiler and reference reject the same inputs.
class ExprGen {
 public:
  ExprGen(std::uint64_t seed, const Topology& topo) : rng_(seed), topo_(topo) {}

  ExprPtr state_expr(int depth) {
    if (depth <= 0 || rng_.chance(0.2)) return leaf();
    switch (rng_.below(8)) {
      case 0:
        return make(Kind::kUnary, rng_.chance(0.5) ? "!" : "-",
                    {state_expr(depth - 1)});
      case 1:
      case 2:
      case 3: {
        static const char* kOps[] = {"+",  "-",  "*", "/",  "%",  "==", "!=",
                                     "<",  "<=", ">", ">=", "&&", "||"};
        return make(Kind::kBinary, kOps[rng_.below(13)],
                    {state_expr(depth - 1), state_expr(depth - 1)});
      }
      case 4:
        return make(Kind::kTernary, "",
                    {state_expr(depth - 1), state_expr(depth - 1),
                     state_expr(depth - 1)});
      case 5: {
        static const char* kFns[] = {"min", "max", "mex"};
        std::vector<ExprPtr> args;
        const std::uint64_t arity = 1 + rng_.below(4);
        for (std::uint64_t i = 0; i < arity; ++i) {
          args.push_back(state_expr(depth - 1));
        }
        return make(Kind::kCall, kFns[rng_.below(3)], std::move(args));
      }
      default:
        return comprehension(depth);
    }
  }

 private:
  ExprPtr leaf() {
    switch (rng_.below(7)) {
      case 0: {
        static const long long kLits[] = {0,          1,          2,
                                          3,          7,          2147483647,
                                          2147483648, 4294967295, 65536};
        return lit(kLits[rng_.below(9)]);
      }
      case 1:
        return make(Kind::kIdent, "n");
      case 2:
        return make(Kind::kIdent, rng_.chance(0.5) ? "y" : "z");
      case 3:
        if (!binders_.empty()) {
          return make(Kind::kIdent, binders_[rng_.below(binders_.size())]);
        }
        return lit(static_cast<long long>(rng_.below(5)));
      default:
        return make(Kind::kSubscript, "x", {index_expr()});
    }
  }

  /// A process index: a binder, a literal, or a topology accessor of one.
  ExprPtr index_expr() {
    // One index in 50 is out of range.
    const auto n = static_cast<std::uint64_t>(topo_.n);
    ExprPtr base =
        !binders_.empty() && rng_.chance(0.7)
            ? make(Kind::kIdent, binders_[rng_.below(binders_.size())])
            : lit(static_cast<long long>(rng_.chance(0.02) ? n
                                                            : rng_.below(n)));
    const bool tree = topo_.kind == Topology::Kind::kTree;
    switch (rng_.below(6)) {
      case 0:
        return make(Kind::kCall, tree ? "parent" : "next", {base});
      case 1:
        return make(Kind::kCall, tree ? "root" : "prev",
                    tree ? std::vector<ExprPtr>{} : std::vector<ExprPtr>{base});
      case 2:
        return make(Kind::kCall, "nbr", {base, lit(0)});
      case 3:
        return make(Kind::kBinary, "%",
                    {make(Kind::kBinary, "+",
                          {base, make(Kind::kCall, "deg", {base})}),
                     make(Kind::kCall, "nproc")});
      case 4:
        return make(Kind::kCall, "backidx", {base, lit(0)});
      default:
        return base;
    }
  }

  ExprPtr set_expr() {
    const bool tree = topo_.kind == Topology::Kind::kTree;
    switch (rng_.below(5)) {
      case 0:
        return make(Kind::kCall, "procs");
      case 1:
      {
        const auto lo = static_cast<long long>(rng_.below(3));
        return make(Kind::kCall, "range",
                    {lit(lo), lit(lo + static_cast<long long>(rng_.below(5)))});
      }
      case 2:
        return make(Kind::kCall, "nbrs", {index_expr()});
      case 3:
        return make(Kind::kCall, "lower_nbrs", {index_expr()});
      default:
        return make(Kind::kCall, tree ? "children" : "nbrs", {index_expr()});
    }
  }

  ExprPtr comprehension(int depth) {
    static const char* kKinds[] = {"all", "any",   "sum",   "count",
                                   "min", "max",   "first", "mex"};
    static const char* kBinders[] = {"k", "i", "m"};
    ExprPtr set = set_expr();
    const std::string binder = kBinders[binders_.size() % 3];
    binders_.push_back(binder);
    ExprPtr body = state_expr(depth - 1);
    binders_.pop_back();
    return make(Kind::kComprehension, kKinds[rng_.below(8)], {set, body}, 0,
                binder);
  }

  Rng rng_;
  const Topology& topo_;
  std::vector<std::string> binders_;
};

Value random_value(Rng& rng) {
  static const Value kEdges[] = {kMin, kMin + 1, -2, -1, 0, 1, 2, kMax - 1,
                                 kMax};
  if (rng.chance(0.4)) return kEdges[rng.below(9)];
  if (rng.chance(0.5)) return static_cast<Value>(rng.below(9)) - 2;
  return static_cast<Value>(static_cast<std::uint32_t>(rng()));
}

std::vector<State> random_states(std::size_t num_vars, std::size_t count,
                                 Rng& rng) {
  std::vector<State> out;
  for (std::size_t i = 0; i < count; ++i) {
    State s(num_vars);
    for (Value& v : s.values()) v = random_value(rng);
    out.push_back(std::move(s));
  }
  return out;
}

void check_random_expressions(Tally& tally) {
  spec::TopologyDecl ring;
  ring.kind = "ring";
  ring.n = 5;
  spec::TopologyDecl tree;
  tree.kind = "balanced";
  tree.n = 6;
  std::uint64_t seed = 1;
  for (const spec::TopologyDecl& decl : {ring, tree}) {
    const Topology topo = spec::build_topology(decl);
    Program p("random");
    std::unordered_map<std::string, std::vector<VarId>> families;
    for (int j = 0; j < topo.n; ++j) {
      families["x"].push_back(p.add_variable(
          VariableSpec("x." + std::to_string(j), kMin, kMax)));
    }
    p.add_variable(VariableSpec("y", kMin, kMax));
    p.add_variable(VariableSpec("z", kMin, kMax));
    std::unordered_map<std::string, long long> params{{"n", topo.n}};
    CompileEnv env;
    env.params = &params;
    env.topo = &topo;
    env.program = &p;
    env.families = &families;
    for (int round = 0; round < 2500; ++round, ++seed) {
      ExprGen gen(seed, topo);
      Rng state_rng(seed ^ 0x5eedULL);
      const auto states = random_states(p.num_variables(), 6, state_rng);
      check_against_reference(gen.state_expr(1 + round % 5), env, states,
                              tally);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// --- shipped and emitted specs --------------------------------------------

/// Every expression of one spec document, compiled in the environment the
/// spec compiler builds for it, against the reference.
void check_spec_expressions(const std::string& text, Tally& tally) {
  const spec::SpecDoc doc = spec::parse_spec(text);
  SCOPED_TRACE(doc.name);
  const spec::CompiledSpec compiled = spec::compile_spec(doc);
  const Program& p = compiled.design.program;
  const Topology& topo = compiled.topology;

  std::unordered_map<std::string, long long> params;
  for (const auto& [key, value] : doc.params) params[key] = value;
  if (doc.has_topology) params["n"] = topo.n;
  std::unordered_map<std::string, std::vector<VarId>> families;
  for (const spec::VariableDecl& d : doc.variables) {
    if (!d.per_process) continue;
    for (int j = 0; j < topo.n; ++j) {
      families[d.name].push_back(
          p.find_variable(d.name + "." + std::to_string(j)));
    }
  }
  CompileEnv env;
  env.params = &params;
  env.topo = &topo;
  env.program = &p;
  env.families = &families;

  Rng rng(0xC0FFEEULL);
  std::vector<State> states;
  for (int i = 0; i < 24; ++i) {
    State s(p.num_variables());
    for (std::uint32_t v = 0; v < p.num_variables(); ++v) {
      const VariableSpec& var = p.variable(VarId(v));
      const auto width = static_cast<std::uint64_t>(
          static_cast<long long>(var.hi) - var.lo + 3);
      s.values()[v] = rng.chance(0.1)
                          ? random_value(rng)
                          : wrap(var.lo - 1 +
                                 static_cast<long long>(rng.below(width)));
    }
    states.push_back(std::move(s));
  }

  // Per-process declarations expand for every j their `where` admits.
  auto expand = [&](bool per_process, const std::string& where,
                    const std::vector<std::string>& exprs) {
    const long long count = per_process ? topo.n : 1;
    for (long long j = 0; j < count; ++j) {
      CompileEnv local = env;
      if (per_process) local.binders["j"] = j;
      if (!where.empty()) {
        check_against_reference(spec::parse_expr(where), local, {}, tally);
        if (index_value(*spec::parse_expr(where), local) == 0) continue;
      }
      for (const std::string& e : exprs) {
        if (e.empty()) continue;
        check_against_reference(spec::parse_expr(e), local, states, tally);
      }
    }
  };
  for (const spec::VariableDecl& d : doc.variables) {
    expand(d.per_process, "", {d.min, d.max});
  }
  for (const spec::ConstraintDecl& d : doc.constraints) {
    expand(d.per_process, d.where, {d.expr});
  }
  for (const spec::ActionDecl& d : doc.actions) {
    std::vector<std::string> exprs{d.guard, d.process, d.constraint};
    for (const auto& [lhs, rhs] : d.assigns) {
      exprs.push_back(lhs);
      exprs.push_back(rhs);
    }
    expand(d.per_process, d.where, exprs);
  }
  expand(false, "", {doc.fault_span, doc.s_override});
}

TEST(SpecExprTest, BytecodeMatchesReferenceWalker) {
  Tally random;
  check_random_expressions(random);
  if (HasFatalFailure()) return;
  // The generator must mostly produce valid, state-dependent expressions.
  EXPECT_GT(random.state_dependent, 2500);
  EXPECT_GT(random.compiled, 4 * random.rejected);
  // Every opcode occurs: each non-binary one, and each of the 13 binary
  // operators with every operand-source pair except constant-constant,
  // which always folds.
  const int binary = static_cast<int>(spec::Op::kBinary);
  for (int op = 0; op < binary + 9 * 13; ++op) {
    if (op >= binary && (op - binary) % 9 == 8) continue;
    EXPECT_EQ(random.opcodes.count(op), 1u) << "opcode " << op;
  }

  Tally shipped;
  int specs = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(NONMASK_SPECS_DIR)) {
    if (entry.path().extension() != ".json") continue;
    std::ifstream in(entry.path());
    std::stringstream text;
    text << in.rdbuf();
    check_spec_expressions(text.str(), shipped);
    if (HasFatalFailure()) return;
    ++specs;
  }
  for (const spec::RegistryEntry& entry : spec::registry()) {
    check_spec_expressions(spec::emit_builtin_spec(entry.name), shipped);
    if (HasFatalFailure()) return;
    ++specs;
  }
  EXPECT_GE(specs, 3 + 21);
  EXPECT_EQ(shipped.rejected, 0);
  EXPECT_GT(shipped.state_dependent, 500);
}

}  // namespace
}  // namespace nonmask
