// The spec DSL front end: expression parsing/evaluation (including the
// total `/`-and-`%`-by-zero semantics), schema validation with
// field-precise paths and lines, and compile-time expansion semantics
// (per-process families, {j} names, group interleaving, derived reads).
#include <algorithm>
#include <chrono>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/program.hpp"
#include "spec/compile.hpp"
#include "spec/expr.hpp"
#include "spec/job.hpp"
#include "spec/spec.hpp"
#include "util/json.hpp"

namespace nonmask {
namespace {

using spec::CompileEnv;
using spec::CompiledSpec;
using spec::ExprError;
using spec::SpecError;
using spec::Topology;
using spec::compile_expr;
using spec::compile_spec_text;
using spec::eval_index_expr;
using spec::parse_expr;
using spec::parse_spec;

long long idx(const std::string& text,
              const std::unordered_map<std::string, long long>& params = {},
              const Topology* topo = nullptr) {
  CompileEnv env;
  env.params = &params;
  env.topo = topo;
  return eval_index_expr(text, env);
}

TEST(SpecExprTest, PrecedenceAndArithmetic) {
  EXPECT_EQ(idx("2 + 3 * 4"), 14);
  EXPECT_EQ(idx("(2 + 3) * 4"), 20);
  EXPECT_EQ(idx("10 - 4 - 3"), 3);  // left associative
  EXPECT_EQ(idx("7 % 3"), 1);
  EXPECT_EQ(idx("-5 + 2"), -3);
  EXPECT_EQ(idx("!0"), 1);
  EXPECT_EQ(idx("!7"), 0);
}

TEST(SpecExprTest, DivisionAndModuloByZeroAreTotal) {
  // Documented totality: x / 0 == 0 and x % 0 == 0, never a trap.
  EXPECT_EQ(idx("7 / 0"), 0);
  EXPECT_EQ(idx("7 % 0"), 0);
  EXPECT_EQ(idx("0 / 0"), 0);
  EXPECT_EQ(idx("(3 - 3) % (2 - 2)"), 0);
}

TEST(SpecExprTest, ComparisonsBoolOpsTernary) {
  EXPECT_EQ(idx("3 < 4"), 1);
  EXPECT_EQ(idx("3 >= 4"), 0);
  EXPECT_EQ(idx("1 && 0 || 1"), 1);
  EXPECT_EQ(idx("1 ? 10 : 20"), 10);
  EXPECT_EQ(idx("0 ? 10 : 1 ? 20 : 30"), 20);  // right associative
}

TEST(SpecExprTest, ParamsAndMalformedInput) {
  EXPECT_EQ(idx("x_max + 1", {{"x_max", 3}}), 4);
  EXPECT_THROW(idx("2 +"), ExprError);
  EXPECT_THROW(idx("2 3"), ExprError);       // trailing garbage
  EXPECT_THROW(idx("nope"), ExprError);      // unknown identifier
  EXPECT_THROW(idx("(1 + 2"), ExprError);    // unbalanced paren
  EXPECT_THROW(idx("f(1, 2)"), ExprError);   // unknown call
}

TEST(SpecExprTest, IntegerLiteralOverflowIsAParseError) {
  // Specs are attacker-suppliable over HTTP: a literal past LLONG_MAX must
  // throw, not silently wrap through signed-overflow UB.
  EXPECT_EQ(idx("2147483647"), 2147483647LL);           // full Value range
  EXPECT_THROW(idx("9223372036854775808"), ExprError);  // LLONG_MAX + 1
  EXPECT_THROW(idx("99999999999999999999999999999999"), ExprError);
  EXPECT_THROW(idx("1 + 18446744073709551616"), ExprError);
}

Topology ring4() {
  Topology t;
  t.kind = Topology::Kind::kRing;
  t.n = 4;
  t.nbrs = {{3, 1}, {0, 2}, {1, 3}, {2, 0}};
  return t;
}

TEST(SpecExprTest, TopologyFunctionsAndComprehensions) {
  const Topology t = ring4();
  std::unordered_map<std::string, long long> params{{"n", 4}};
  EXPECT_EQ(idx("next(1)", params, &t), 2);
  EXPECT_EQ(idx("prev(0)", params, &t), 3);
  EXPECT_EQ(idx("nproc()", params, &t), 4);
  EXPECT_EQ(idx("sum(k : procs(), k)", params, &t), 6);
  EXPECT_EQ(idx("count(k : range(0, 4), k % 2 == 0)", params, &t), 2);
  EXPECT_EQ(idx("max(k : nbrs(0), k)", params, &t), 3);
  EXPECT_EQ(idx("all(k : procs(), k < 4)", params, &t), 1);
  EXPECT_EQ(idx("any(k : procs(), k == 9)", params, &t), 0);
  // mex/first always compile to state-time closures (never index consts).
  CompileEnv env;
  std::unordered_map<std::string, long long> p2{{"n", 4}};
  env.params = &p2;
  env.topo = &t;
  const State empty(0);
  EXPECT_EQ(compile_expr(parse_expr("mex(k : range(0, 3), k)"), env).eval(empty),
            3);
  EXPECT_EQ(
      compile_expr(parse_expr("first(k : procs(), k >= 2)"), env).eval(empty),
      2);
}

TEST(SpecExprTest, StateClosuresCollectReadsInFirstOccurrenceOrder) {
  Program p("t");
  const VarId x = p.add_variable(VariableSpec("x", 0, 7));
  const VarId y = p.add_variable(VariableSpec("y", 0, 7));
  CompileEnv env;
  std::unordered_map<std::string, long long> params;
  env.params = &params;
  env.program = &p;
  const auto ce = compile_expr(parse_expr("y + x * 2 + y"), env);
  ASSERT_FALSE(ce.is_const);
  ASSERT_EQ(ce.reads.size(), 2u);  // deduplicated
  EXPECT_EQ(ce.reads[0], y);       // first occurrence first
  EXPECT_EQ(ce.reads[1], x);
  State s(2);
  s.set(x, 3);
  s.set(y, 1);
  EXPECT_EQ(ce.eval(s), 1 + 3 * 2 + 1);
}

TEST(SpecExprTest, ConstantSubexpressionsFold) {
  Program p("t");
  p.add_variable(VariableSpec("x", 0, 7));
  CompileEnv env;
  std::unordered_map<std::string, long long> params{{"n", 4}};
  env.params = &params;
  env.program = &p;
  // No program variable referenced -> whole expression is a constant.
  const auto ce = compile_expr(parse_expr("n * 2 + 1"), env);
  EXPECT_TRUE(ce.is_const);
  EXPECT_EQ(ce.value, 9);
  EXPECT_TRUE(ce.reads.empty());
}

TEST(SpecExprTest, UnaryMinusWrapsAtTheInt32Edge) {
  // -INT32_MIN is not an int32: negation computes in 64 bits and wraps,
  // like every other operator, at index time and at state time alike.
  EXPECT_EQ(idx("-2147483648"), -2147483648LL);
  EXPECT_EQ(idx("-(0 - 2147483647 - 1)"), -2147483648LL);
  EXPECT_EQ(idx("- -2147483648"), -2147483648LL);
  EXPECT_EQ(idx("2147483647 + 1"), -2147483648LL);
  Program p("t");
  constexpr Value kMin = std::numeric_limits<Value>::min();
  constexpr Value kMax = std::numeric_limits<Value>::max();
  const VarId x = p.add_variable(VariableSpec("x", kMin, kMax));
  CompileEnv env;
  std::unordered_map<std::string, long long> params;
  env.params = &params;
  env.program = &p;
  const auto neg = compile_expr(parse_expr("-x"), env);
  const auto neg_sum = compile_expr(parse_expr("-(x + 0 * x)"), env);
  State s(1);
  s.set(x, kMin);
  EXPECT_EQ(neg.eval(s), kMin);
  EXPECT_EQ(neg_sum.eval(s), kMin);
  s.set(x, kMax);
  EXPECT_EQ(neg.eval(s), -kMax);
}

TEST(SpecExprTest, BytecodeFusesLoadsAndElidesBooleanTernaries) {
  Program p("t");
  const VarId x = p.add_variable(VariableSpec("x", 0, 7));
  const VarId y = p.add_variable(VariableSpec("y", 0, 7));
  CompileEnv env;
  std::unordered_map<std::string, long long> params;
  env.params = &params;
  env.program = &p;
  auto compiled = [&](const std::string& text) {
    return compile_expr(parse_expr(text), env);
  };
  EXPECT_EQ(compiled("x != y").code.size(), 1u);       // var op var
  EXPECT_EQ(compiled("x + 1").code.size(), 1u);        // var op const
  EXPECT_EQ(compiled("(x == y ? 1 : 0)").code.size(), 1u);
  EXPECT_EQ(compiled("x").code.size(), 1u);
  State s(2);
  s.set(x, 3);
  s.set(y, 5);
  EXPECT_EQ(compiled("x < y ? x : y").eval(s), 3);  // branch-free select
  EXPECT_EQ(compiled("x > y ? x * 2 : y + 1").eval(s), 6);
  EXPECT_EQ(compiled("x < y ? x : y * 2").eval(s), 3);
  EXPECT_EQ(compiled("x > y ? x : y * 2").eval(s), 10);
  EXPECT_EQ(compiled("x ? 1 : 0").eval(s), 1);  // non-boolean condition
  EXPECT_EQ(compiled("x - y").eval(s), -2);
  EXPECT_EQ(compiled("10 - x").eval(s), 7);
  EXPECT_EQ(compiled("10 - (x * y)").eval(s), -5);
  EXPECT_EQ(compiled("(x * y) - y").eval(s), 10);
  // An operand folded away by && / || takes its reads with it.
  const auto folded = compiled("(x + y > 2) && 0");
  EXPECT_TRUE(folded.is_const);
  EXPECT_TRUE(folded.reads.empty());
}

TEST(SpecExprTest, DeepStackProgramsEvaluate) {
  // 300 pending sum operands exceed the interpreter's inline stack.
  Program p("t");
  const VarId x = p.add_variable(VariableSpec("x", 0, 7));
  CompileEnv env;
  std::unordered_map<std::string, long long> params;
  env.params = &params;
  env.program = &p;
  const auto ce =
      compile_expr(parse_expr("sum(k : range(0, 300), x + k)"), env);
  EXPECT_GE(ce.max_stack, 300u);
  State s(1);
  s.set(x, 2);
  EXPECT_EQ(ce.eval(s), 2 * 300 + 299 * 300 / 2);
}

// --- schema validation ----------------------------------------------------

std::string minimal_spec(const std::string& extra = "") {
  return std::string("{\n")
      + "  \"schema\": \"nonmask-spec/1\",\n"
      + "  \"name\": \"mini\",\n"
      + "  \"variables\": [{\"name\": \"x\", \"min\": \"0\", \"max\": \"3\"}],\n"
      + "  \"actions\": [{\"name\": \"step\", \"kind\": \"convergence\",\n"
      + "                \"guard\": \"x > 0\", \"assign\": {\"x\": \"x - 1\"},\n"
      + "                \"constraint\": \"0\"}],\n"
      + "  \"constraints\": [{\"name\": \"zero\", \"expr\": \"x == 0\"}]"
      + extra + "\n}\n";
}

TEST(SpecParseTest, AcceptsMinimalSpec) {
  const auto doc = parse_spec(minimal_spec());
  EXPECT_EQ(doc.name, "mini");
  EXPECT_EQ(doc.variables.size(), 1u);
  EXPECT_EQ(doc.actions.size(), 1u);
  EXPECT_EQ(doc.constraints.size(), 1u);
}

TEST(SpecParseTest, RejectsWrongSchema) {
  try {
    parse_spec("{\"schema\": \"nonmask-spec/99\", \"name\": \"x\"}");
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "$.schema");
  }
  EXPECT_THROW(parse_spec("{\"name\": \"x\"}"), SpecError);  // schema missing
}

TEST(SpecParseTest, ErrorsCarryPathAndLine) {
  // guard must be a string; the error names the exact field and line.
  const std::string text =
      "{\n"
      "  \"schema\": \"nonmask-spec/1\",\n"
      "  \"name\": \"bad\",\n"
      "  \"variables\": [{\"name\": \"x\", \"min\": \"0\", \"max\": \"1\"}],\n"
      "  \"actions\": [\n"
      "    {\"name\": \"a\", \"kind\": \"closure\",\n"
      "     \"guard\": 17,\n"
      "     \"assign\": {\"x\": \"0\"}}\n"
      "  ]\n"
      "}\n";
  try {
    parse_spec(text);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_EQ(e.path(), "$.actions[0].guard");
    EXPECT_EQ(e.line(), 7);
    EXPECT_NE(std::string(e.what()).find("line 7"), std::string::npos);
  }
}

TEST(SpecParseTest, RejectsUnknownActionKindAndJobType) {
  EXPECT_THROW(
      parse_spec(
          "{\"schema\": \"nonmask-spec/1\", \"name\": \"x\","
          " \"variables\": [{\"name\": \"x\", \"min\": \"0\", \"max\": \"1\"}],"
          " \"actions\": [{\"name\": \"a\", \"kind\": \"sideways\","
          "                \"assign\": {\"x\": \"0\"}}]}"),
      SpecError);
  EXPECT_THROW(parse_spec(minimal_spec(",\n  \"job\": {\"type\": \"dance\"}")),
               SpecError);
}

TEST(SpecParseTest, RejectsUnknownTopLevelField) {
  EXPECT_THROW(parse_spec(minimal_spec(",\n  \"typo_field\": 1")), SpecError);
}

TEST(SpecParseTest, ContentHashIsStableAndTextSensitive) {
  const std::string a = minimal_spec();
  EXPECT_EQ(spec::fnv1a64_hex(a), spec::fnv1a64_hex(a));
  EXPECT_EQ(spec::fnv1a64_hex(a).size(), 16u);
  EXPECT_NE(spec::fnv1a64_hex(a), spec::fnv1a64_hex(a + " "));
}

// --- compilation semantics ------------------------------------------------

const char* kRingSpec = R"({
  "schema": "nonmask-spec/1",
  "name": "ring-demo",
  "topology": {"kind": "ring", "n": 3},
  "variables": [{"name": "x", "per": "process", "min": "0", "max": "2"}],
  "constraints": [
    {"name": "eq.{j}", "per": "process", "where": "j > 0",
     "expr": "x[j] == x[j - 1]"}
  ],
  "actions": [
    {"name": "copy@{j}", "kind": "convergence", "per": "process",
     "where": "j > 0", "guard": "x[j] != x[j - 1]",
     "assign": {"x[j]": "x[j - 1]"}, "constraint": "j - 1"}
  ]
})";

TEST(SpecCompileTest, ExpandsPerProcessDeclarations) {
  const CompiledSpec cs = compile_spec_text(kRingSpec);
  const Program& p = cs.design.program;
  ASSERT_EQ(p.num_variables(), 3u);
  EXPECT_EQ(p.variable(VarId(0)).name, "x.0");
  EXPECT_EQ(p.variable(VarId(2)).name, "x.2");
  EXPECT_EQ(p.variable(VarId(1)).process, 1);
  ASSERT_EQ(p.num_actions(), 2u);
  EXPECT_EQ(p.action(0).name(), "copy@1");
  EXPECT_EQ(p.action(1).name(), "copy@2");
  EXPECT_EQ(p.action(0).constraint_id(), 0);
  EXPECT_EQ(p.action(1).constraint_id(), 1);
  ASSERT_EQ(cs.design.invariant.size(), 2u);
  EXPECT_EQ(cs.design.invariant.at(0).name, "eq.1");
  // Derived reads: guard + rhs first-occurrence order, deduplicated.
  ASSERT_EQ(p.action(0).reads().size(), 2u);
  EXPECT_EQ(p.action(0).reads()[0], p.find_variable("x.1"));
  EXPECT_EQ(p.action(0).reads()[1], p.find_variable("x.0"));
  // Provenance fields round through.
  EXPECT_EQ(cs.spec_name, "ring-demo");
  EXPECT_EQ(cs.schema, spec::kSchemaVersion);
  EXPECT_EQ(cs.content_hash.size(), 16u);
}

TEST(SpecCompileTest, ActionSemanticsAreSimultaneous) {
  // Both right-hand sides read the pre-state: a swap really swaps.
  const char* text = R"({
    "schema": "nonmask-spec/1",
    "name": "swap",
    "variables": [
      {"name": "a", "min": "0", "max": "9"},
      {"name": "b", "min": "0", "max": "9"}
    ],
    "constraints": [{"name": "eq", "expr": "a == b"}],
    "actions": [
      {"name": "swap", "kind": "convergence", "guard": "a != b",
       "assign": {"a": "b", "b": "a"}, "constraint": "0"}
    ]
  })";
  const CompiledSpec cs = compile_spec_text(text);
  const Program& p = cs.design.program;
  State s(2);
  s.set(VarId(0), 3);
  s.set(VarId(1), 8);
  const State t = p.action(0).apply(s);
  EXPECT_EQ(t.get(VarId(0)), 8);
  EXPECT_EQ(t.get(VarId(1)), 3);
}

TEST(SpecCompileTest, GroupedDeclarationsInterleaveProcessMajor) {
  const char* text = R"({
    "schema": "nonmask-spec/1",
    "name": "grouped",
    "topology": {"kind": "ring", "n": 2},
    "variables": [{"name": "x", "per": "process", "min": "0", "max": "1"}],
    "constraints": [
      {"name": "ge.{j}", "per": "process", "expr": "x[j] >= 0",
       "group": "layers"},
      {"name": "eq.{j}", "per": "process", "expr": "x[j] == 0",
       "group": "layers"}
    ],
    "actions": [
      {"name": "fix@{j}", "kind": "convergence", "per": "process",
       "guard": "x[j] != 0", "assign": {"x[j]": "0"}, "constraint": "2 * j + 1"}
    ]
  })";
  const CompiledSpec cs = compile_spec_text(text);
  // Interleaved: ge.0, eq.0, ge.1, eq.1 — not ge.0, ge.1, eq.0, eq.1.
  ASSERT_EQ(cs.design.invariant.size(), 4u);
  EXPECT_EQ(cs.design.invariant.at(0).name, "ge.0");
  EXPECT_EQ(cs.design.invariant.at(1).name, "eq.0");
  EXPECT_EQ(cs.design.invariant.at(2).name, "ge.1");
  EXPECT_EQ(cs.design.invariant.at(3).name, "eq.1");
}

TEST(SpecCompileTest, RejectsSemanticErrorsWithPath) {
  // Unknown variable in a guard.
  const char* text = R"({
    "schema": "nonmask-spec/1",
    "name": "bad",
    "variables": [{"name": "x", "min": "0", "max": "1"}],
    "constraints": [{"name": "c", "expr": "x == 0"}],
    "actions": [
      {"name": "a", "kind": "convergence", "guard": "ghost > 0",
       "assign": {"x": "0"}, "constraint": "0"}
    ]
  })";
  try {
    compile_spec_text(text);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(e.path().find("$.actions[0]"), std::string::npos);
  }
}

TEST(SpecCompileTest, RejectsOutOfRangeConstraintId) {
  const char* text = R"({
    "schema": "nonmask-spec/1",
    "name": "bad",
    "variables": [{"name": "x", "min": "0", "max": "1"}],
    "constraints": [{"name": "c", "expr": "x == 0"}],
    "actions": [
      {"name": "a", "kind": "convergence", "guard": "x > 0",
       "assign": {"x": "0"}, "constraint": "5"}
    ]
  })";
  EXPECT_THROW(compile_spec_text(text), SpecError);
}

std::string read_spec_file(const std::string& name) {
  std::ifstream in(std::string(NONMASK_SPECS_DIR) + "/" + name);
  std::stringstream text;
  text << in.rdbuf();
  return text.str();
}

/// The shipped token-ring campaign spec with its ring resized to n.
std::string token_ring_text(int n) {
  std::string text = read_spec_file("token_ring_campaign.json");
  const std::string from = "\"n\": 4";
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos);
  text.replace(at, from.size(), "\"n\": " + std::to_string(n));
  return text;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Variable lookups during compilation are O(1): a ring 4x larger compiles
// in well under 16x the time (linear growth gives about 4x).
TEST(SpecCompileTest, CompileTimeGrowsLinearlyWithRingSize) {
  auto best_of_3 = [](const std::string& text) {
    double best = 1e9;
    for (int i = 0; i < 3; ++i) {
      const auto t0 = std::chrono::steady_clock::now();
      const CompiledSpec spec = compile_spec_text(text);
      best = std::min(best, seconds_since(t0));
      EXPECT_GT(spec.design.program.num_variables(), 0u);
    }
    return best;
  };
  const double small = best_of_3(token_ring_text(8192));
  const double large = best_of_3(token_ring_text(32768));
  EXPECT_LT(large, 8 * small) << "8k ring " << small << " s, 32k ring "
                              << large << " s";
}

/// The 9^7-style containment ring of jobbench, n = 6 processes, K values.
std::string containment_ring_text(int k) {
  return R"({
    "schema": "nonmask-spec/1", "name": "ring-containment",
    "params": {"K": )" + std::to_string(k) + R"(},
    "topology": {"kind": "ring", "n": 6},
    "variables": [{"name": "x", "per": "process", "min": "0", "max": "K - 1"}],
    "constraints": [{"name": "agree.{j}", "per": "process", "where": "j > 0",
                     "expr": "x[j] == x[j - 1]"}],
    "actions": [
      {"name": "advance@0", "kind": "closure", "guard": "x[0] == x[n - 1]",
       "assign": {"x[0]": "(x[0] + 1) % K"}, "process": "0"},
      {"name": "adopt@{j}", "kind": "closure", "per": "process",
       "where": "j > 0", "guard": "x[j] != x[j - 1]",
       "assign": {"x[j]": "x[j - 1]"}}],
    "job": {"type": "containment", "byzantine": [1], "seed": 1, "threads": 2}
  })";
}

// A job report's wall_ms runs from job start: for jobs long enough to time
// (each job grows until the call takes 20 ms), it covers at least half of
// the externally timed call and never more.
TEST(SpecJobTest, WallMsCoversTheJob) {
  struct Timed {
    double outside_ms = 0;
    std::string report_json;
  };
  auto run_timed = [](const CompiledSpec& spec) {
    const auto t0 = std::chrono::steady_clock::now();
    spec::JobResult result = spec::run_spec_job(spec);
    return Timed{seconds_since(t0) * 1e3, std::move(result.report_json)};
  };
  std::vector<Timed> runs;
  CompiledSpec campaign = compile_spec_text(token_ring_text(16));
  campaign.job.trials = 1000;
  runs.push_back(run_timed(campaign));
  while (runs.back().outside_ms < 20.0 &&
         campaign.job.trials < (std::size_t{1} << 20)) {
    campaign.job.trials *= 2;
    runs.back() = run_timed(campaign);
  }
  int k = 7;
  runs.push_back(run_timed(compile_spec_text(containment_ring_text(k))));
  while (runs.back().outside_ms < 20.0 && k < 13) {
    k += 2;
    runs.back() = run_timed(compile_spec_text(containment_ring_text(k)));
  }
  for (const Timed& run : runs) {
    if (run.outside_ms < 20.0) GTEST_SKIP() << "jobs too short to time";
  }
  for (const Timed& run : runs) {
    const util::JsonValue report = util::parse_json(run.report_json);
    const util::JsonValue* wall = report.find("wall_ms");
    const util::JsonValue* tool = report.find("tool");
    ASSERT_NE(wall, nullptr);
    ASSERT_NE(tool, nullptr);
    EXPECT_GE(wall->as_double(), 0.5 * run.outside_ms) << tool->string_value;
    EXPECT_LE(wall->as_double(), run.outside_ms) << tool->string_value;
  }
}

}  // namespace
}  // namespace nonmask
