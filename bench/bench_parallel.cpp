// Serial-vs-N-thread throughput of the parallel subsystem: the dense
// backend's chunked closure, convergence and fault-span passes (through
// the store facade) on the token-ring and diffusing designs, and campaign
// trial throughput. The thread count is the benchmark argument, so
// `--benchmark_filter=Sweep` prints a direct scaling table; at 1 thread the
// facade runs the serial reference checkers.
#include <benchmark/benchmark.h>

#include "bench_report.hpp"

#include "checker/state_space.hpp"
#include "engine/experiment.hpp"
#include "parallel/campaign.hpp"
#include "protocols/diffusing.hpp"
#include "protocols/token_ring.hpp"
#include "store/facade.hpp"

using namespace nonmask;

namespace {

store::StoreConfig dense_config(std::int64_t threads) {
  store::StoreConfig cfg;
  cfg.backend = store::StoreBackend::kLegacyDense;
  cfg.threads = static_cast<unsigned>(threads);
  cfg.grain = 1 << 14;  // several chunks even on the 6^6 ring
  return cfg;
}

void BM_SweepClosureTokenRing(benchmark::State& state) {
  const auto tr = make_dijkstra_ring(7, 8);  // 8^7 = 2M states
  StateSpace space(tr.design.program);
  const auto S = tr.design.S();
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto report =
        store::check_closed_via(dense_config(state.range(0)), space, S);
    benchmark::DoNotOptimize(report.closed);
    states += space.size();
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

void BM_SweepClosureDiffusing(benchmark::State& state) {
  const auto dd = make_diffusing(RootedTree::balanced(10, 2), true);
  StateSpace space(dd.design.program);
  const auto S = dd.design.S();
  std::uint64_t states = 0;
  for (auto _ : state) {
    const auto report =
        store::check_closed_via(dense_config(state.range(0)), space, S);
    benchmark::DoNotOptimize(report.closed);
    states += space.size();
  }
  state.counters["states/s"] = benchmark::Counter(
      static_cast<double>(states), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

void BM_SweepConvergenceTokenRing(benchmark::State& state) {
  const auto tr = make_dijkstra_ring(6, 6);  // 6^6 = 46656 states
  StateSpace space(tr.design.program);
  const auto S = tr.design.S();
  const auto T = tr.design.T();
  std::uint64_t transitions = 0;
  for (auto _ : state) {
    const auto report =
        store::check_convergence_via(dense_config(state.range(0)), space, S, T);
    benchmark::DoNotOptimize(report.verdict);
    transitions += report.transitions;
  }
  state.counters["transitions/s"] = benchmark::Counter(
      static_cast<double>(transitions), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

void BM_SweepFaultSpanDiffusing(benchmark::State& state) {
  const auto dd = make_diffusing(RootedTree::balanced(9, 2), true);
  StateSpace space(dd.design.program);
  const auto S = dd.design.S();
  for (auto _ : state) {
    const auto span = store::compute_fault_span_via(
        dense_config(state.range(0)), space, S, {});
    benchmark::DoNotOptimize(span.size());
  }
  state.counters["threads"] = static_cast<double>(state.range(0));
}

void BM_CampaignTokenRing(benchmark::State& state) {
  const auto tr = make_dijkstra_ring(24, 25);
  ConvergenceExperiment config;
  config.trials = 64;
  config.seed = 1;
  config.max_steps = 2'000'000;
  CampaignOptions opts;
  opts.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t trials = 0;
  for (auto _ : state) {
    const auto results = run_campaign(tr.design, config, opts);
    benchmark::DoNotOptimize(results.aggregate.converged_fraction);
    benchmark::DoNotOptimize(results.aggregate.steps.stddev);
    trials += config.trials;
  }
  state.counters["trials/s"] = benchmark::Counter(
      static_cast<double>(trials), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

void BM_CampaignDiffusing(benchmark::State& state) {
  const auto dd = make_diffusing(RootedTree::balanced(31, 2), true);
  ConvergenceExperiment config;
  config.trials = 64;
  config.seed = 1;
  config.max_steps = 2'000'000;
  CampaignOptions opts;
  opts.threads = static_cast<unsigned>(state.range(0));
  std::uint64_t trials = 0;
  for (auto _ : state) {
    const auto results = run_campaign(dd.design, config, opts);
    benchmark::DoNotOptimize(results.aggregate.converged_fraction);
    trials += config.trials;
  }
  state.counters["trials/s"] = benchmark::Counter(
      static_cast<double>(trials), benchmark::Counter::kIsRate);
  state.counters["threads"] = static_cast<double>(state.range(0));
}

}  // namespace

BENCHMARK(BM_SweepClosureTokenRing)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepClosureDiffusing)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepConvergenceTokenRing)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_SweepFaultSpanDiffusing)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CampaignTokenRing)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(BM_CampaignDiffusing)->Arg(1)->Arg(2)->Arg(4)
    ->Unit(benchmark::kMillisecond);

NONMASK_BENCHMARK_MAIN("bench_parallel");
