// Serial microprobes of the per-transition layers, each over the design of
// the workload it is reported under. They run in their own process, never
// in the end-to-end one: the set-insert probes intern the whole 9^7 space.
#include "probes.hpp"

#include <algorithm>
#include <thread>
#include <vector>

#include "checker/restricted.hpp"
#include "checker/state_space.hpp"
#include "engine/simulator.hpp"
#include "sched/daemons.hpp"
#include "store/concurrent_set.hpp"
#include "store/facade.hpp"
#include "store/frontier.hpp"
#include "store/odometer.hpp"
#include "store/packed.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace jobbench {

namespace {

using nonmask::Action;
using nonmask::Program;
using nonmask::State;
using nonmask::StateSpace;

// Results feed this so the probed calls cannot be optimized away.
volatile std::uint64_t g_sink = 0;

// Median over 7 batches of `body` (which performs `ops` operations per
// call); each batch repeats the call until it has run ~20 ms.
template <class Body>
double ns_per_op(std::uint64_t ops, Body&& body) {
  std::int64_t t0 = now_ns();
  body();
  const double once = static_cast<double>(std::max<std::int64_t>(now_ns() - t0, 1));
  const int reps = std::max(1, static_cast<int>(20e6 / once));
  std::vector<double> batches;
  for (int b = 0; b < 7; ++b) {
    t0 = now_ns();
    for (int r = 0; r < reps; ++r) body();
    batches.push_back(static_cast<double>(now_ns() - t0) /
                      (static_cast<double>(reps) * static_cast<double>(ops)));
  }
  return median(batches);
}

std::vector<State> random_states(const Program& p, std::uint64_t seed,
                                 std::size_t count) {
  nonmask::Rng rng(seed);
  std::vector<State> states;
  for (std::size_t i = 0; i < count; ++i) states.push_back(p.random_state(rng));
  return states;
}

double guard_ns(const Program& p, const std::vector<State>& states) {
  return ns_per_op(states.size() * p.num_actions(), [&] {
    std::uint64_t hits = 0;
    for (const State& s : states) {
      for (const Action& a : p.actions()) hits += a.enabled(s) ? 1 : 0;
    }
    g_sink = g_sink + hits;
  });
}

// Action::execute on a copy of the state plus StateSpace::encode of the
// result: the statement-apply step of every successor expansion.
double apply_ns(const StateSpace& space, const std::vector<State>& states) {
  const Program& p = space.program();
  std::vector<std::pair<const State*, const Action*>> fired;
  for (const State& s : states) {
    for (const Action& a : p.actions()) {
      if (a.enabled(s)) fired.emplace_back(&s, &a);
    }
  }
  State scratch(p.num_variables());
  return ns_per_op(fired.size(), [&] {
    std::uint64_t acc = 0;
    for (const auto& [s, a] : fired) {
      scratch.values() = s->values();
      a->execute(scratch);
      acc += space.encode(scratch);
    }
    g_sink = g_sink + acc;
  });
}

double predicate_ns(const nonmask::PredicateFn& pred,
                    const std::vector<State>& states) {
  return ns_per_op(states.size(), [&] {
    std::uint64_t hits = 0;
    for (const State& s : states) hits += pred(s) ? 1 : 0;
    g_sink = g_sink + hits;
  });
}

double odometer_ns(const StateSpace& space) {
  return ns_per_op(space.size() - 1, [&] {
    nonmask::store::OdometerCursor cursor(space, 0);
    for (std::uint64_t i = 1; i < space.size(); ++i) cursor.advance();
    g_sink = g_sink + static_cast<std::uint64_t>(cursor.state().values()[0]);
  });
}

// StoreBackedSuccessors::successors over a contiguous range of codes,
// per successor produced.
double successors_ns(const StateSpace& space, std::uint64_t seed) {
  const std::uint64_t range = std::min<std::uint64_t>(space.size(), 1 << 18);
  nonmask::Rng rng(seed);
  const std::uint64_t lo = rng.below(space.size() - range + 1);
  nonmask::store::StoreBackedSuccessors succ(
      space, nonmask::non_fault_actions(space.program()));
  std::vector<std::uint64_t> next;
  std::uint64_t per_pass = 0;
  for (std::uint64_t c = lo; c < lo + range; ++c) {
    succ.successors(c, next);
    per_pass += next.size();
  }
  return ns_per_op(std::max<std::uint64_t>(per_pass, 1), [&] {
    std::uint64_t acc = 0;
    for (std::uint64_t c = lo; c < lo + range; ++c) {
      succ.successors(c, next);
      acc += next.size();
    }
    g_sink = g_sink + acc;
  });
}

double pack_hash_ns(const nonmask::store::PackedLayout& layout,
                    const std::vector<State>& states) {
  std::vector<std::uint64_t> words(layout.words());
  return ns_per_op(states.size(), [&] {
    std::uint64_t acc = 0;
    for (const State& s : states) {
      layout.pack(s, words.data());
      acc ^= layout.hash(words.data(), 1);
    }
    g_sink = g_sink + acc;
  });
}

// One pass of ConcurrentPackedSet::insert over every packed record, split
// into contiguous stripes across `threads` workers; wall ns per insert.
double insert_pass_ns(nonmask::store::ConcurrentPackedSet& set,
                      const std::vector<std::uint64_t>& records,
                      std::size_t words, unsigned threads) {
  const std::uint64_t n = records.size() / words;
  std::vector<std::uint64_t> fresh(threads, 0);
  const std::int64_t t0 = now_ns();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      const unsigned shards = set.shard_count();
      for (unsigned i = shards * t / threads; i < shards * (t + 1) / threads; ++i) {
        set.touch(i);
      }
      for (std::uint64_t r = n * t / threads; r < n * (t + 1) / threads; ++r) {
        fresh[t] += set.insert(&records[r * words]).second ? 1 : 0;
      }
    });
  }
  for (auto& th : pool) th.join();
  const double ns = static_cast<double>(now_ns() - t0) / static_cast<double>(n);
  for (std::uint64_t f : fresh) g_sink = g_sink + f;
  return ns;
}

void set_insert_probes(const StateSpace& space, unsigned threads,
                       const std::string& prefix, std::vector<Metric>& out) {
  const nonmask::store::PackedLayout layout(space.program());
  const std::size_t words = layout.words();
  std::vector<std::uint64_t> records(space.size() * words);
  nonmask::store::OdometerCursor cursor(space, 0);
  for (std::uint64_t c = 0; c < space.size(); ++c) {
    layout.pack(cursor.state(), &records[c * words]);
    if (c + 1 < space.size()) cursor.advance();
  }
  const nonmask::store::StoreConfig config;
  for (const unsigned t : {1u, threads}) {
    nonmask::store::ConcurrentPackedSet set(layout, config.shard_bits,
                                            config.hash_seed, space.size());
    const std::string suffix = t == 1 ? ".t1" : ".tN";
    out.push_back({prefix + "store.set_insert_miss_ns" + suffix,
                   insert_pass_ns(set, records, words, t), "ns"});
    out.push_back({prefix + "store.set_insert_hit_ns" + suffix,
                   insert_pass_ns(set, records, words, t), "ns"});
  }
}

// The per-transition probes shared by the two exhaustive-check workloads.
void check_probes(const nonmask::Design& design, std::uint64_t seed,
                  const std::string& prefix, std::vector<Metric>& out) {
  const StateSpace space(design.program);
  const std::vector<State> states = random_states(design.program, seed, 4096);
  out.push_back({prefix + "store.odometer_ns", odometer_ns(space), "ns"});
  out.push_back({prefix + "core.guard_ns", guard_ns(design.program, states), "ns"});
  out.push_back({prefix + "core.apply_ns", apply_ns(space, states), "ns"});
  out.push_back({prefix + "core.pred_S_ns", predicate_ns(design.S(), states), "ns"});
  out.push_back({prefix + "core.pred_T_ns", predicate_ns(design.T(), states), "ns"});
  out.push_back({prefix + "store.successors_ns", successors_ns(space, seed), "ns"});
  out.push_back({prefix + "store.pack_hash_ns",
                 pack_hash_ns(nonmask::store::PackedLayout(design.program), states),
                 "ns"});
}

// Simulator::run per step: seeded runs from random states until S holds.
double step_ns(const nonmask::Design& design, std::uint64_t seed) {
  nonmask::Rng rng(seed);
  nonmask::RandomDaemon daemon(seed);
  std::uint64_t steps = 0;
  std::int64_t busy = 0;
  while (busy < 300'000'000 || steps == 0) {
    State start = design.program.random_state(rng);
    const std::int64_t t0 = now_ns();
    const nonmask::RunResult r = nonmask::converge(design, std::move(start), daemon);
    busy += now_ns() - t0;
    steps += r.steps;
  }
  return static_cast<double>(busy) / static_cast<double>(std::max<std::uint64_t>(steps, 1));
}

// FrontierEngine::for_items dispatch of empty items; wall ns per item.
double for_items_ns(unsigned threads) {
  nonmask::store::StoreConfig config;
  config.backend = nonmask::store::StoreBackend::kStore;
  config.threads = threads;
  nonmask::store::FrontierEngine engine(config);
  const std::uint64_t items = 1 << 16;
  return ns_per_op(items, [&] {
    engine.for_items(0, items, [](std::uint64_t, unsigned) {});
  });
}

}  // namespace

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<Metric> run_probes(bool small, std::uint64_t seed, unsigned threads) {
  std::vector<Metric> out;
  for (Workload w : all_workloads()) {
    const Inputs in = make_inputs(w, small, threads, seed);
    const nonmask::spec::CompiledSpec spec = prepare(in);
    const nonmask::Design& design = spec.design;
    const std::string prefix = std::string(name(w)) + ".";
    switch (w) {
      case Workload::kRingCheck:
        check_probes(design, seed, prefix, out);
        set_insert_probes(StateSpace(design.program), threads, prefix, out);
        break;
      case Workload::kRingFairNative:
        check_probes(design, seed, prefix, out);
        break;
      case Workload::kRingContainment: {
        const Program composed =
            nonmask::compose_byzantine(design.program, spec.job.byzantine);
        const StateSpace space(composed);
        const std::vector<State> states = random_states(composed, seed, 4096);
        out.push_back({prefix + "core.guard_ns", guard_ns(composed, states), "ns"});
        out.push_back({prefix + "core.apply_ns", apply_ns(space, states), "ns"});
        out.push_back({prefix + "store.for_items_ns", for_items_ns(threads), "ns"});
        break;
      }
      case Workload::kRingCampaign: {
        const std::vector<State> states = random_states(design.program, seed, 1024);
        out.push_back({prefix + "core.guard_ns", guard_ns(design.program, states), "ns"});
        out.push_back({prefix + "engine.step_ns", step_ns(design, seed), "ns"});
        break;
      }
    }
  }
  return out;
}

}  // namespace jobbench
