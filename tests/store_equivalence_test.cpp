// The backend contract (store/facade.hpp): every report either backend
// produces must be byte-identical to the serial reference checker in
// src/checker/, on every protocol, at every thread count. The backends
// share the store pipeline's scans, so each is compared with the serial
// reference, never only with the other. This suite checks the contract
// field-by-field — counts, verdicts, and full counterexample states — for
// closure, convergence (unfair and weakly fair), reachability, fault span,
// variant extraction, and the end-to-end tolerance verdict, across 1/2/8
// worker threads, with a grain small enough that every space spans several
// chunks.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/fault_span.hpp"
#include "checker/state_space.hpp"
#include "checker/variant.hpp"
#include "core/builder.hpp"
#include "core/candidate.hpp"
#include "fuzz_designs.hpp"
#include "obs/metrics.hpp"
#include "protocols/coloring.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/distributed_reset.hpp"
#include "protocols/running_example.hpp"
#include "protocols/token_ring.hpp"
#include "protocols/token_ring_small.hpp"
#include "store/facade.hpp"

namespace nonmask {
namespace {

struct Case {
  std::string label;
  Design design;
};

std::vector<Case> equivalence_cases() {
  std::vector<Case> cases;
  // kWriteXBoth is deliberately broken: its convergence check produces a
  // livelock cycle counterexample, so the counterexample paths are
  // compared too.
  cases.push_back({"running-example",
                   make_running_example(RunningExampleVariant::kWriteYZ)});
  cases.push_back({"running-example-broken",
                   make_running_example(RunningExampleVariant::kWriteXBoth)});
  cases.push_back(
      {"diffusing", make_diffusing(RootedTree::balanced(3, 2), true).design});
  cases.push_back(
      {"diffusing-7", make_diffusing(RootedTree::balanced(7, 2), true).design});
  cases.push_back(
      {"diffusing-chain", make_diffusing(RootedTree::chain(6), true).design});
  cases.push_back({"token-ring-small", make_dijkstra_three_state(3).design});
  cases.push_back(
      {"three-state-ring", make_dijkstra_three_state(4).design});
  cases.push_back({"dijkstra-ring", make_dijkstra_ring(4, 5).design});
  cases.push_back(
      {"bounded-ring", make_token_ring_bounded(4, 3, true).design});
  cases.push_back(
      {"coloring", make_coloring(UndirectedGraph::cycle(4)).design});
  return cases;
}

constexpr store::StoreBackend kBackends[] = {
    store::StoreBackend::kLegacyDense, store::StoreBackend::kStore};

store::StoreConfig config_for(store::StoreBackend backend, unsigned threads) {
  store::StoreConfig cfg;
  cfg.backend = backend;
  cfg.threads = threads;
  cfg.grain = 64;  // small grain: tiny spaces still cross chunk boundaries
  return cfg;
}

std::string context(const std::string& label, store::StoreBackend backend,
                    unsigned threads) {
  return label + " " + store::to_string(backend) + " @" +
         std::to_string(threads) + "t";
}

void expect_same_closure(const ClosureReport& a, const ClosureReport& b,
                         const std::string& ctx) {
  EXPECT_EQ(a.closed, b.closed) << ctx;
  EXPECT_EQ(a.states_checked, b.states_checked) << ctx;
  EXPECT_EQ(a.transitions_checked, b.transitions_checked) << ctx;
  ASSERT_EQ(a.violation.has_value(), b.violation.has_value()) << ctx;
  if (a.violation) {
    EXPECT_EQ(a.violation->state, b.violation->state) << ctx;
    EXPECT_EQ(a.violation->action, b.violation->action) << ctx;
    EXPECT_EQ(a.violation->successor, b.violation->successor) << ctx;
  }
}

void expect_same_convergence(const ConvergenceReport& a,
                             const ConvergenceReport& b,
                             const std::string& ctx) {
  EXPECT_EQ(a.verdict, b.verdict) << ctx;
  EXPECT_EQ(a.states_in_T, b.states_in_T) << ctx;
  EXPECT_EQ(a.states_in_S, b.states_in_S) << ctx;
  EXPECT_EQ(a.region_states, b.region_states) << ctx;
  EXPECT_EQ(a.transitions, b.transitions) << ctx;
  EXPECT_EQ(a.max_steps_to_S, b.max_steps_to_S) << ctx;
  ASSERT_EQ(a.cycle.has_value(), b.cycle.has_value()) << ctx;
  if (a.cycle) {
    EXPECT_EQ(*a.cycle, *b.cycle) << ctx;
  }
  ASSERT_EQ(a.deadlock.has_value(), b.deadlock.has_value()) << ctx;
  if (a.deadlock) {
    EXPECT_EQ(*a.deadlock, *b.deadlock) << ctx;
  }
}

void expect_same_set(const StateSet& a, const StateSet& b,
                     const std::string& ctx) {
  ASSERT_EQ(a.size(), b.size()) << ctx;
  for (std::uint64_t code = 0; code < a.space().size(); ++code) {
    ASSERT_EQ(a.contains_code(code), b.contains_code(code))
        << ctx << " code " << code;
  }
}

class BackendEquivalenceTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(BackendEquivalenceTest, AllReportsByteIdentical) {
  const unsigned threads = GetParam();
  for (const auto& c : equivalence_cases()) {
    const StateSpace space(c.design.program);
    const PredicateFn S = c.design.S();
    const PredicateFn T = c.design.T();
    const auto faults = c.design.program.actions_of_kind(ActionKind::kFault);

    const auto closure_S = check_closed(space, S);
    const auto closure_T = check_closed(space, T);
    const auto convergence = check_convergence(space, S, T);
    const auto span = compute_fault_span(space, S, faults);
    const auto tolerance = verify_tolerance(space, c.design);

    for (const auto backend : kBackends) {
      const auto cfg = config_for(backend, threads);
      const std::string ctx = context(c.label, backend, threads);
      expect_same_closure(closure_S, store::check_closed_via(cfg, space, S),
                          ctx + " closure(S)");
      expect_same_closure(closure_T, store::check_closed_via(cfg, space, T),
                          ctx + " closure(T)");
      expect_same_convergence(
          convergence, store::check_convergence_via(cfg, space, S, T),
          ctx + " convergence");
      expect_same_set(span,
                      store::compute_fault_span_via(cfg, space, S, faults),
                      ctx + " fault-span");

      const auto via = store::verify_tolerance_via(cfg, space, c.design);
      EXPECT_EQ(tolerance.S_closed, via.S_closed) << ctx;
      EXPECT_EQ(tolerance.T_closed, via.T_closed) << ctx;
      expect_same_convergence(tolerance.convergence, via.convergence,
                              ctx + " tolerance");
      EXPECT_EQ(tolerance.tolerant(), via.tolerant()) << ctx;
    }
  }
}

// The first violating (state, action, successor) triple is part of the
// contract: x != y alone is not closed under the write-x-both variant
// (fix-leq sets x := z, which can land on y).
TEST_P(BackendEquivalenceTest, ClosureViolationMatchesSerial) {
  const unsigned threads = GetParam();
  const Design d = make_running_example(RunningExampleVariant::kWriteXBoth);
  const StateSpace space(d.program);
  const VarId x = d.program.find_variable("x");
  const VarId y = d.program.find_variable("y");
  const PredicateFn only_first = [x, y](const State& s) {
    return s.get(x) != s.get(y);
  };
  const auto serial = check_closed(space, only_first);
  ASSERT_FALSE(serial.closed);
  for (const auto backend : kBackends) {
    expect_same_closure(
        serial,
        store::check_closed_via(config_for(backend, threads), space,
                                only_first),
        context("closure violation", backend, threads));
  }
}

// A capped reachability run truncates at the same state as the serial
// BFS — the cap is part of the determinism contract, not best-effort.
TEST_P(BackendEquivalenceTest, CappedReachabilityTruncatesIdentically) {
  const unsigned threads = GetParam();
  struct Capped {
    std::string label;
    Design design;
    std::uint64_t max_states;
  };
  const std::vector<Capped> cases = {
      {"dijkstra-ring", make_dijkstra_ring(4, 5).design, 101},
      {"diffusing-chain", make_diffusing(RootedTree::chain(6), true).design,
       37},
  };
  for (const auto& c : cases) {
    const StateSpace space(c.design.program);
    const auto actions = non_fault_actions(c.design.program);
    FaultSpanOptions opts;
    opts.max_states = c.max_states;
    const auto serial = compute_reachable(space, c.design.S(), actions, opts);
    for (const auto backend : kBackends) {
      expect_same_set(
          serial,
          store::compute_reachable_via(config_for(backend, threads), space,
                                       c.design.S(), actions, opts),
          context(c.label + " capped reach", backend, threads));
    }
  }
}

// The weakly-fair (Tarjan/SCC) check must reproduce the serial reports
// byte for byte under both bookkeeping layouts, including the closed-SCC
// cycle counterexample of the broken running example and the
// fairness-rescued distributed reset (where the unfair check is kViolated
// but the SCC escape analysis proves convergence).
TEST_P(BackendEquivalenceTest, WeaklyFairReportsByteIdentical) {
  const unsigned threads = GetParam();
  auto cases = equivalence_cases();
  cases.push_back(
      {"distributed-reset",
       make_distributed_reset(RootedTree::balanced(3, 2), 2, true).design});
  for (const auto& c : cases) {
    const StateSpace space(c.design.program);
    const auto serial =
        check_convergence_weakly_fair(space, c.design.S(), c.design.T());
    for (const auto backend : kBackends) {
      expect_same_convergence(
          serial,
          store::check_convergence_weakly_fair_via(
              config_for(backend, threads), space, c.design.S(),
              c.design.T()),
          context(c.label + " fair", backend, threads));
    }
  }
}

// Variant extraction through the facade produces the same function (the
// raw per-state distance table) as the serial extraction, and the same
// "no variant exists" answer for a non-converging design.
TEST_P(BackendEquivalenceTest, VariantExtractionMatchesDense) {
  const unsigned threads = GetParam();
  for (const auto& c : equivalence_cases()) {
    const StateSpace space(c.design.program);
    const auto serial = compute_variant(space, c.design.S());
    for (const auto backend : kBackends) {
      const std::string ctx = context(c.label + " variant", backend, threads);
      const auto via = store::compute_variant_via(config_for(backend, threads),
                                                  space, c.design.S());
      ASSERT_EQ(serial.has_value(), via.has_value()) << ctx;
      if (serial) {
        EXPECT_EQ(serial->raw(), via->raw()) << ctx;
      }
    }
  }
}

// A space exactly at its budget is constructible and checkable through
// either backend; one state below, construction throws the typed error
// before any backend runs.
TEST_P(BackendEquivalenceTest, StateSpaceTooLargeAtExactBudget) {
  const unsigned threads = GetParam();
  const auto dd = make_diffusing(RootedTree::balanced(7, 2), true);
  const auto count = dd.design.program.state_count();
  ASSERT_TRUE(count.has_value());
  const StateSpace exact(dd.design.program, *count);
  const auto serial = check_closed(exact, dd.design.S());
  EXPECT_TRUE(serial.closed);
  for (const auto backend : kBackends) {
    expect_same_closure(
        serial,
        store::check_closed_via(config_for(backend, threads), exact,
                                dd.design.S()),
        context("exact budget", backend, threads));
  }
  try {
    const StateSpace too_small(dd.design.program, *count - 1);
    FAIL() << "expected StateSpaceTooLarge";
  } catch (const StateSpaceTooLarge& e) {
    EXPECT_EQ(e.requested(), *count);
    EXPECT_EQ(e.budget(), *count - 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, BackendEquivalenceTest,
                         ::testing::Values(1u, 2u, 8u));

// The store backend's parallel convergence elimination
// (store/store_check.cpp): with more than one worker it decides converging
// designs without the DFS or Tarjan pass, and falls back to them, from
// scratch, on a deadlock, a cycle, or a successor outside T ∪ S. Either way
// the report and the counters a report shows must be the serial checker's.
class ConvergenceEliminationTest : public ::testing::TestWithParam<unsigned> {
 protected:
  void SetUp() override {
    obs::Metrics::set_enabled(true);
    obs::Registry::instance().reset();
  }
  void TearDown() override {
    obs::Registry::instance().reset();
    obs::Metrics::set_enabled(false);
  }

  /// Which path the store run took.
  struct Path {
    std::uint64_t rounds = 0;
    std::uint64_t fallbacks = 0;
  };

  /// Run the serial check and the store check under fresh counters, expect
  /// equal reports and equal shared counters, and return the store run's
  /// elimination counters.
  Path compare_with_serial(const StateSpace& space, const PredicateFn& S,
                           const PredicateFn& T, bool fair,
                           const std::string& ctx) {
    auto& registry = obs::Registry::instance();
    auto shared_counters = [&registry] {
      std::vector<std::uint64_t> values;
      for (const char* name :
           {"states_explored", "checker.convergence.checks",
            "checker.convergence.region_states",
            "checker.convergence.transitions", "checker.scc.components"}) {
        values.push_back(registry.counter(name).value());
      }
      return values;
    };
    registry.reset();
    const ConvergenceReport serial =
        fair ? check_convergence_weakly_fair(space, S, T)
             : check_convergence(space, S, T);
    const std::vector<std::uint64_t> serial_counters = shared_counters();

    registry.reset();
    const store::StoreConfig cfg =
        config_for(store::StoreBackend::kStore, GetParam());
    const ConvergenceReport via =
        fair ? store::check_convergence_weakly_fair_via(cfg, space, S, T)
             : store::check_convergence_via(cfg, space, S, T);
    expect_same_convergence(serial, via, ctx);
    EXPECT_EQ(serial_counters, shared_counters()) << ctx << " counters";
    return {registry.counter("store.eliminate.rounds").value(),
            registry.counter("store.eliminate.fallbacks").value()};
  }

  bool parallel() const { return GetParam() > 1; }

  std::string label(const std::string& design, bool fair) const {
    return design + (fair ? " fair" : " unfair") + " @" +
           std::to_string(GetParam()) + "t";
  }
};

// (a) Every converging equivalence design takes the fast path, including
// the long worst cases of diffusing-chain and bounded-ring; with one worker
// the elimination never runs.
TEST_P(ConvergenceEliminationTest, ConvergingDesignsTakeTheFastPath) {
  int converging = 0;
  for (const auto& c : equivalence_cases()) {
    const StateSpace space(c.design.program);
    const PredicateFn S = c.design.S();
    const PredicateFn T = c.design.T();
    if (check_convergence(space, S, T).verdict !=
        ConvergenceVerdict::kConverges) {
      continue;
    }
    ++converging;
    for (const bool fair : {false, true}) {
      const std::string ctx = label(c.label, fair);
      const Path path = compare_with_serial(space, S, T, fair, ctx);
      EXPECT_EQ(path.fallbacks, 0u) << ctx;
      if (parallel()) {
        EXPECT_GT(path.rounds, 0u) << ctx;
      } else {
        EXPECT_EQ(path.rounds, 0u) << ctx;
      }
    }
  }
  EXPECT_EQ(converging, 9);
}

// A 128-state design over x in [0, 7] and an idle y in [0, 15] (two chunks
// at grain 64), with S = {x == 0}, T = {x <= t_max}, and one action
// x == from -> x := to per listed move.
struct BailCase {
  std::string label;
  std::vector<std::pair<Value, Value>> moves;
  Value t_max = 7;
};

// (b) Each bail-out reason falls back exactly once, and the fallback's
// report is the serial one: a ¬S deadlock; a successor leaving T, once
// into a converging detour and once while the states left in T form a
// cycle that an elimination counting the detour would balance out; a
// singleton self-loop (which fairness rescues: x := 4 leaves it); the
// livelock of the broken running example; and the fairness-rescued
// distributed reset.
TEST_P(ConvergenceEliminationTest, EachBailOutFallsBackOnce) {
  const std::vector<BailCase> cases = {
      {"deadlock", {{2, 1}, {3, 2}, {4, 3}, {5, 4}, {6, 5}, {7, 6}}},
      {"leaves-T",
       {{1, 5}, {2, 6}, {3, 7}, {4, 0}, {5, 0}, {6, 0}, {7, 0}},
       3},
      {"leaves-T-cycle",
       {{3, 6}, {3, 7}, {2, 1}, {1, 2}, {4, 0}, {5, 0}, {6, 0}, {7, 0}},
       3},
      {"self-loop",
       {{1, 0}, {2, 1}, {3, 2}, {4, 3}, {5, 4}, {5, 5}, {6, 5}, {7, 6}}},
  };
  auto check = [&](const std::string& design, const StateSpace& space,
                   const PredicateFn& S, const PredicateFn& T, bool fair) {
    const std::string ctx = label(design, fair);
    const Path path = compare_with_serial(space, S, T, fair, ctx);
    EXPECT_EQ(path.fallbacks, parallel() ? 1u : 0u) << ctx;
  };
  for (const BailCase& c : cases) {
    ProgramBuilder b(c.label);
    const VarId x = b.var("x", 0, 7);
    b.var("y", 0, 15);
    for (const auto& [from, to] : c.moves) {
      b.closure(
          std::to_string(from) + "->" + std::to_string(to),
          [x, from = from](const State& s) { return s.get(x) == from; },
          [x, to = to](State& s) { s.set(x, to); }, {x}, {x});
    }
    const Program program = b.build();
    const StateSpace space(program);
    const PredicateFn S = [x](const State& s) { return s.get(x) == 0; };
    const Value t_max = c.t_max;
    const PredicateFn T = [x, t_max](const State& s) {
      return s.get(x) <= t_max;
    };
    for (const bool fair : {false, true}) check(c.label, space, S, T, fair);
  }
  const Design broken =
      make_running_example(RunningExampleVariant::kWriteXBoth);
  const StateSpace broken_space(broken.program);
  check("running-example-broken", broken_space, broken.S(), broken.T(), false);
  const Design reset =
      make_distributed_reset(RootedTree::balanced(3, 2), 2, true).design;
  const StateSpace reset_space(reset.program);
  check("distributed-reset", reset_space, reset.S(), reset.T(), true);
}

// (d) Differential oracle: on the random copy-tree designs of
// FuzzSoundnessTest every field matches the serial checker, and the
// elimination decides exactly the designs that converge without fairness
// (T is true there, so the region never leaves T).
TEST_P(ConvergenceEliminationTest, FuzzedDesignsMatchSerial) {
  for (std::uint64_t seed = 0; seed < 60; ++seed) {
    const auto fc = testing_support::make_fuzz_case(seed);
    const StateSpace space(fc.design.program);
    const PredicateFn S = fc.design.S();
    const PredicateFn T = fc.design.T();
    const bool converges = check_convergence(space, S, T).verdict ==
                           ConvergenceVerdict::kConverges;
    for (const bool fair : {false, true}) {
      const std::string ctx = label(fc.design.name, fair);
      const Path path = compare_with_serial(space, S, T, fair, ctx);
      EXPECT_EQ(path.fallbacks, parallel() && !converges ? 1u : 0u) << ctx;
    }
  }
}

// A long path through a narrow region: x counts up to 299 (S) while an
// idle y in [0, 63] stays 0 (T), so the region is 299 states on one path
// spread over 300 chunks of a 19200-code space. Each elimination round
// frees one state in another chunk; the worst case is the whole path.
TEST_P(ConvergenceEliminationTest, LongPathThroughNarrowRegion) {
  constexpr Value kTop = 299;
  ProgramBuilder b("counter");
  const VarId x = b.var("x", 0, kTop);
  const VarId y = b.var("y", 0, 63);
  b.closure(
      "inc", [x](const State& s) { return s.get(x) < kTop; },
      [x](State& s) { s.set(x, s.get(x) + 1); }, {x}, {x});
  const Program program = b.build();
  const StateSpace space(program);
  const PredicateFn S = [x](const State& s) { return s.get(x) == kTop; };
  const PredicateFn T = [y](const State& s) { return s.get(y) == 0; };
  for (const bool fair : {false, true}) {
    const std::string ctx = label("counter", fair);
    const Path path = compare_with_serial(space, S, T, fair, ctx);
    EXPECT_EQ(path.fallbacks, 0u) << ctx;
    EXPECT_EQ(path.rounds, parallel() ? std::uint64_t{kTop} : 0u) << ctx;
  }
  EXPECT_EQ(check_convergence(space, S, T).max_steps_to_S,
            std::uint64_t{kTop});
}

INSTANTIATE_TEST_SUITE_P(Threads, ConvergenceEliminationTest,
                         ::testing::Values(1u, 2u, 8u));

}  // namespace
}  // namespace nonmask
