#include "store/store_check.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <limits>
#include <memory>
#include <unordered_map>

#include "checker/convergence_core.hpp"
#include "checker/scc_core.hpp"
#include "core/candidate.hpp"
#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "parallel/thread_pool.hpp"
#include "store/bitset.hpp"
#include "store/frontier.hpp"
#include "store/odometer.hpp"

namespace nonmask::store {

namespace {

std::size_t chunk_count(std::uint64_t range, std::uint64_t grain) {
  return static_cast<std::size_t>((range + grain - 1) / grain);
}

/// Chunk grain rounded up to a multiple of 32, so parallel chunks never
/// share a TwoBitArray word (32 2-bit entries per 64-bit word).
std::uint64_t aligned_grain(const StoreConfig& config) {
  return (std::max<std::uint64_t>(config.grain, 32) + 31) & ~std::uint64_t{31};
}

/// The serial closure slice scan (checker/closure_check.cpp) with the
/// decode replaced by an odometer ripple; counts, early exit, and the
/// violation triple are exactly the serial scan's.
ClosureReport scan_closure_range_odometer(
    const StateSpace& space, const PredicateFn& predicate,
    const std::vector<std::size_t>& actions, std::uint64_t begin,
    std::uint64_t end) {
  const Program& p = space.program();
  ClosureReport report;
  OdometerCursor cur(space, begin);
  State next(p.num_variables());
  for (std::uint64_t code = begin; code < end; ++code) {
    const State& s = cur.state();
    if (predicate(s)) {
      ++report.states_checked;
      for (std::size_t idx : actions) {
        const Action& a = p.action(idx);
        if (!a.enabled(s)) continue;
        ++report.transitions_checked;
        next = s;
        a.execute(next);
        if (!predicate(next)) {
          report.closed = false;
          report.violation = ClosureViolation{s, idx, next};
          return report;
        }
      }
    }
    if (code + 1 < end) cur.advance();
  }
  report.closed = true;
  return report;
}

/// The serial checker's flag pass into a TwoBitArray (2 bits/state instead
/// of a byte), chunk-parallel with in-order count reduction — same flags
/// and counts.
TwoBitArray evaluate_flags_store(ThreadPool& pool, const StateSpace& space,
                                 const PredicateFn& S, const PredicateFn& T,
                                 std::uint64_t grain,
                                 ConvergenceReport& report) {
  obs::Span span("store.flags");
  obs::ProgressMeter meter("flags", space.size());
  TwoBitArray flags(space.size());
  struct Counts {
    std::uint64_t in_S = 0;
    std::uint64_t in_T = 0;
  };
  std::vector<Counts> counts(chunk_count(space.size(), grain));
  parallel_for_chunked(
      pool, 0, space.size(), grain,
      [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
          unsigned worker) {
        (void)worker;
        obs::Span chunk_span("sweep.flags.chunk", &sweep_chunk_histogram());
        OdometerCursor cur(space, lo);
        Counts c;
        for (std::uint64_t code = lo; code < hi; ++code) {
          const State& s = cur.state();
          std::uint8_t f = 0;
          const bool in_T = T(s);
          if (in_T) f |= detail::kFlagT;
          if (S(s)) {
            f |= detail::kFlagS;
            if (in_T) ++c.in_S;
          }
          if (in_T) ++c.in_T;
          flags.set(code, f);
          if (code + 1 < hi) cur.advance();
        }
        counts[chunk] = c;
        meter.add(hi - lo);
      });
  for (const Counts& c : counts) {
    report.states_in_S += c.in_S;
    report.states_in_T += c.in_T;
  }
  return flags;
}

/// The dense backend's successor source: the ¬S-region adjacency
/// precomputed in CSR form — the sorted distinct successor codes of every
/// ¬S state, exactly as ProgramSuccessors produces them on the fly.
class CsrSuccessors final : public SuccessorSource {
 public:
  CsrSuccessors(std::vector<std::uint64_t> offsets,
                std::vector<std::uint64_t> succs)
      : offsets_(std::move(offsets)), succs_(std::move(succs)) {}

  void successors(std::uint64_t code,
                  std::vector<std::uint64_t>& out) override {
    out.assign(succs_.begin() + static_cast<std::ptrdiff_t>(offsets_[code]),
               succs_.begin() +
                   static_cast<std::ptrdiff_t>(offsets_[code + 1]));
  }

 private:
  std::vector<std::uint64_t> offsets_;  // size() + 1 entries
  std::vector<std::uint64_t> succs_;
};

/// Chunk-parallel CSR build. Decode, guard evaluation, apply and encode per
/// transition are the hot ~90% of a convergence check; building them here
/// on every worker leaves the serial DFS/SCC core only array walks, at
/// 8 bytes per code for the offsets plus 8 per transition.
CsrSuccessors build_region_adjacency(ThreadPool& pool, const StateSpace& space,
                                     const TwoBitArray& flags,
                                     const std::vector<std::size_t>& actions,
                                     std::uint64_t grain) {
  struct ChunkAdj {
    std::vector<std::uint32_t> degree;  // per code in the chunk
    std::vector<std::uint64_t> data;    // concatenated successor lists
  };
  std::vector<ChunkAdj> chunks(chunk_count(space.size(), grain));
  std::vector<ProgramSuccessors> sources;
  sources.reserve(pool.size());
  for (unsigned i = 0; i < pool.size(); ++i) {
    sources.emplace_back(space, actions);
  }

  obs::ProgressMeter meter("adjacency", space.size());
  parallel_for_chunked(
      pool, 0, space.size(), grain,
      [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
          unsigned worker) {
        obs::Span chunk_span("sweep.adjacency.chunk",
                             &sweep_chunk_histogram());
        ChunkAdj& adj = chunks[chunk];
        adj.degree.reserve(static_cast<std::size_t>(hi - lo));
        std::vector<std::uint64_t> succs;
        for (std::uint64_t code = lo; code < hi; ++code) {
          if ((flags[code] & detail::kFlagS) != 0) {
            adj.degree.push_back(0);  // in S: the DFS never expands it
            continue;
          }
          sources[worker].successors(code, succs);
          adj.degree.push_back(static_cast<std::uint32_t>(succs.size()));
          adj.data.insert(adj.data.end(), succs.begin(), succs.end());
        }
        meter.add(hi - lo);
      });

  std::size_t total = 0;
  for (const ChunkAdj& adj : chunks) total += adj.data.size();
  std::vector<std::uint64_t> offsets(space.size() + 1, 0);
  std::vector<std::uint64_t> data;
  data.reserve(total);
  std::uint64_t code = 0;
  for (ChunkAdj& adj : chunks) {
    for (std::uint32_t deg : adj.degree) {
      offsets[code + 1] = offsets[code] + deg;
      ++code;
    }
    data.insert(data.end(), adj.data.begin(), adj.data.end());
    adj = ChunkAdj{};  // free each chunk once copied
  }
  return CsrSuccessors(std::move(offsets), std::move(data));
}

/// Parallel Kahn-style elimination over the region T ∧ ¬S (OWCTY-style,
/// Černá & Pelánek 2003): decides a converging design with forward edges
/// only, in place of the serial DFS or Tarjan pass. `report` arrives with
/// the flag pass's counts; the result is the report the DFS would return,
/// or nullopt when the region holds a deadlock, a cycle, or a successor
/// outside T ∪ S — the cases whose counterexample, or whose region, only
/// the serial traversal reproduces exactly. The arrays are freed on return,
/// before the caller's fallback allocates its own.
///
/// Pass A expands every region state once, counting region_states and
/// transitions and each region state's in-degree within the region (u16,
/// relaxed atomic increments). Pass B removes in-degree-0 states in
/// level-synchronous rounds over 1-bit frontier maps, decrementing the
/// in-degree of each successor. A state removed in round r lies at the end
/// of a longest in-region path of r steps, so max over states with an
/// S-successor of r + 1 is the DFS's longest path to S.
std::optional<ConvergenceReport> eliminate_region(
    ThreadPool& pool, const StateSpace& space, const TwoBitArray& flags,
    const std::vector<std::size_t>& actions, std::uint64_t grain,
    ConvergenceReport report) {
  obs::Span span("store.eliminate");
  obs::ProgressMeter meter("eliminate", space.size());
  // Chunks own whole bitmap words: each chunk clears the frontier words it
  // has expanded while other chunks set bits in the next map.
  grain = (grain + 63) & ~std::uint64_t{63};
  const std::size_t chunks = chunk_count(space.size(), grain);
  const std::size_t words = static_cast<std::size_t>((space.size() + 63) / 64);
  auto in_region = [&](std::uint8_t f) {
    return (f & detail::kFlagT) != 0 && (f & detail::kFlagS) == 0;
  };

  std::vector<std::uint16_t> indegree(space.size(), 0);
  std::atomic<bool> bail{false};
  struct RegionCounts {
    std::uint64_t states = 0;
    std::uint64_t transitions = 0;
  };
  std::vector<RegionCounts> region(chunks);
  parallel_for_chunked(
      pool, 0, space.size(), grain,
      [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi, unsigned) {
        obs::Span chunk_span("sweep.eliminate.chunk",
                             &sweep_chunk_histogram());
        ProgramSuccessors succ(space, actions);
        std::vector<std::uint64_t> out;
        OdometerCursor cur(space, lo);
        RegionCounts c;
        for (std::uint64_t code = lo; code < hi; ++code) {
          if (in_region(flags[code])) {
            if (bail.load(std::memory_order_relaxed)) return;
            succ.successors_of(cur.state(), out);
            if (out.empty()) {  // a ¬S deadlock
              bail.store(true, std::memory_order_relaxed);
              return;
            }
            ++c.states;
            c.transitions += out.size();
            for (const std::uint64_t next : out) {
              const std::uint8_t f = flags[next];
              if ((f & detail::kFlagS) != 0) continue;
              // Leaving T ∪ S widens the DFS region past T ∧ ¬S; a wrapped
              // counter would lose predecessors.
              if ((f & detail::kFlagT) == 0 ||
                  std::atomic_ref<std::uint16_t>(indegree[next])
                          .fetch_add(1, std::memory_order_relaxed) ==
                      std::numeric_limits<std::uint16_t>::max()) {
                bail.store(true, std::memory_order_relaxed);
                return;
              }
            }
          }
          if (code + 1 < hi) cur.advance();
        }
        region[chunk] = c;
        meter.add(hi - lo);
      });
  if (bail.load(std::memory_order_relaxed)) return std::nullopt;
  for (const RegionCounts& c : region) {
    report.region_states += c.states;
    report.transitions += c.transitions;
  }

  // Round 0: the region states no region state leads to.
  std::vector<std::uint64_t> frontier(words, 0);
  std::vector<std::uint64_t> next_frontier(words, 0);
  std::vector<std::uint64_t> added(chunks, 0);
  parallel_for_chunked(
      pool, 0, space.size(), grain,
      [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi, unsigned) {
        std::uint64_t n = 0;
        for (std::uint64_t code = lo; code < hi; ++code) {
          if (indegree[code] == 0 && in_region(flags[code])) {
            frontier[code >> 6] |= std::uint64_t{1} << (code & 63);
            ++n;
          }
        }
        added[chunk] = n;
      });
  // A round visits only the chunks whose frontier words hold a bit, so it
  // costs its own states, not the code range: a long path to S through a
  // narrow region stays O(region + rounds), and a round within one chunk
  // runs inline without a pool dispatch.
  std::vector<std::size_t> active;
  std::uint64_t level_size = 0;
  for (std::size_t c = 0; c < chunks; ++c) {
    if (added[c] > 0) active.push_back(c);
    level_size += added[c];
  }
  added = {};

  struct Visit {
    std::uint64_t freed = 0;
    bool to_S = false;
    std::vector<std::size_t> woken;  // chunks this visit first gave a bit
  };
  std::vector<Visit> visits;
  std::vector<std::uint8_t> woken(chunks, 0);
  std::uint64_t removed = 0;
  std::uint64_t rounds = 0;
  for (; !active.empty(); ++rounds) {
    removed += level_size;
    visits.assign(active.size(), Visit{});
    parallel_for_chunked(
        pool, 0, active.size(), 1,
        [&](std::size_t i, std::uint64_t, std::uint64_t, unsigned) {
          obs::Span chunk_span("sweep.eliminate.chunk",
                               &sweep_chunk_histogram());
          const std::uint64_t lo = std::uint64_t{active[i]} * grain;
          const std::uint64_t hi = std::min(space.size(), lo + grain);
          ProgramSuccessors succ(space, actions);
          std::vector<std::uint64_t> out;
          Visit visit;
          for (std::size_t w = static_cast<std::size_t>(lo >> 6);
               w < static_cast<std::size_t>((hi + 63) >> 6); ++w) {
            for (std::uint64_t bits = frontier[w]; bits != 0;
                 bits &= bits - 1) {
              const std::uint64_t code =
                  (std::uint64_t{w} << 6) +
                  static_cast<std::uint64_t>(std::countr_zero(bits));
              succ.successors(code, out);
              for (const std::uint64_t next : out) {
                if ((flags[next] & detail::kFlagS) != 0) {
                  visit.to_S = true;
                  continue;
                }
                if (std::atomic_ref<std::uint16_t>(indegree[next])
                        .fetch_sub(1, std::memory_order_relaxed) != 1) {
                  continue;
                }
                std::atomic_ref<std::uint64_t>(next_frontier[next >> 6])
                    .fetch_or(std::uint64_t{1} << (next & 63),
                              std::memory_order_relaxed);
                ++visit.freed;
                const std::size_t c = static_cast<std::size_t>(next / grain);
                if (std::atomic_ref<std::uint8_t>(woken[c]).exchange(
                        1, std::memory_order_relaxed) == 0) {
                  visit.woken.push_back(c);
                }
              }
            }
            frontier[w] = 0;
          }
          visits[i] = std::move(visit);
        });
    active.clear();
    level_size = 0;
    for (const Visit& v : visits) {
      level_size += v.freed;
      if (v.to_S) report.max_steps_to_S = rounds + 1;
      active.insert(active.end(), v.woken.begin(), v.woken.end());
    }
    for (const std::size_t c : active) woken[c] = 0;
    std::sort(active.begin(), active.end());  // code order, for locality
    frontier.swap(next_frontier);
  }
  if (obs::Metrics::enabled()) {
    obs::Registry::instance().counter("store.eliminate.rounds").add(rounds);
  }
  if (removed != report.region_states) return std::nullopt;  // a cycle
  report.verdict = ConvergenceVerdict::kConverges;
  return report;
}

/// The elimination's fast path when the pool has more than one worker.
/// Serially it expands every region state twice where the DFS or Tarjan
/// expands it once, and it lost on the 9^7 rings at one worker (wall time
/// of the whole check, min of 4 alternating runs, 4-vCPU host: spec ring
/// unfair 3.43 s against 3.26 s for the DFS, weakly fair 3.30 s against
/// 2.63 s for Tarjan; the hand-coded ring unfair 2.15-2.42 s against
/// 1.66-2.13 s), so one worker keeps the serial pass. Counts a fallback when
/// it bails; on success adds the region to states_explored, as the DFS or
/// Tarjan meter would have.
std::optional<ConvergenceReport> try_eliminate(
    ThreadPool& pool, const StateSpace& space, const TwoBitArray& flags,
    const std::vector<std::size_t>& actions, const StoreConfig& config,
    const ConvergenceReport& report) {
  if (pool.size() <= 1) return std::nullopt;
  std::optional<ConvergenceReport> result = eliminate_region(
      pool, space, flags, actions, aligned_grain(config), report);
  if (obs::Metrics::enabled()) {
    obs::Registry& registry = obs::Registry::instance();
    if (result) {
      registry.counter("states_explored").add(result->region_states);
    } else {
      registry.counter("store.eliminate.fallbacks").add(1);
    }
  }
  return result;
}

/// Thrown by the u16 bookkeeping when a convergence distance exceeds its
/// width; the caller restarts the identical traversal with u32 distances.
struct DistanceOverflow {};

template <typename DistT>
struct CompactDfsBookkeeping {
  explicit CompactDfsBookkeeping(std::uint64_t size)
      : color_(size), dist_(size, 0) {}

  std::uint8_t color(std::uint64_t code) const { return color_[code]; }
  void set_color(std::uint64_t code, std::uint8_t c) { color_.set(code, c); }
  std::uint32_t dist(std::uint64_t code) const { return dist_[code]; }
  void set_dist(std::uint64_t code, std::uint32_t d) {
    if (d > std::numeric_limits<DistT>::max()) throw DistanceOverflow{};
    dist_[code] = static_cast<DistT>(d);
  }
  std::int64_t stack_pos(std::uint64_t code) const {
    const auto it = stack_pos_.find(code);
    return it == stack_pos_.end() ? -1 : it->second;
  }
  void set_stack_pos(std::uint64_t code, std::int64_t pos) {
    if (pos < 0) {
      stack_pos_.erase(code);
    } else {
      stack_pos_[code] = pos;
    }
  }

  TwoBitArray color_;
  std::vector<DistT> dist_;
  /// Only DFS-path states have a position — path depth, not range, sized.
  std::unordered_map<std::uint64_t, std::int64_t> stack_pos_;
};

/// Store-native Tarjan bookkeeping (checker/scc_core.hpp contract). The
/// per-code state is a stamped u32 visit index (kUnset = unvisited,
/// reusable across runs without an O(n) clear) plus one on-stack bit;
/// visit ids are dense, so lowlinks are indexed by id in fixed-size slabs
/// appended as the traversal grows — 4 bytes per *visited* state with no
/// realloc-copy spike at 2× peak, instead of 4 bytes per code up front.
/// The legacy component array (4 bytes/code) is replaced by sorted member
/// snapshots of the sealed (nontrivial) SCCs: membership queries only
/// ever name sealed components, and states outside them answer false
/// exactly like a component-id mismatch would.
class CompactTarjanBookkeeping {
 public:
  explicit CompactTarjanBookkeeping(std::uint64_t size)
      : index_(size), on_stack_((size + 63) / 64, 0) {}

  bool visited(std::uint64_t code) const { return index_.known(code); }
  std::uint32_t index(std::uint64_t code) const { return index_.get(code); }
  void set_index(std::uint64_t code, std::uint32_t v) { index_.set(code, v); }
  std::uint32_t lowlink(std::uint64_t code) const {
    return slab_get(index_.get(code));
  }
  void set_lowlink(std::uint64_t code, std::uint32_t v) {
    slab_set(index_.get(code), v);
  }
  bool on_stack(std::uint64_t code) const {
    return (on_stack_[code >> 6] >> (code & 63)) & 1;
  }
  void set_on_stack(std::uint64_t code, bool b) {
    const std::uint64_t mask = std::uint64_t{1} << (code & 63);
    if (b) {
      on_stack_[code >> 6] |= mask;
    } else {
      on_stack_[code >> 6] &= ~mask;
    }
  }
  void mark_component(std::uint64_t, std::int32_t) {}
  void seal_component(std::int32_t comp,
                      const std::vector<std::uint64_t>& scc) {
    std::vector<std::uint64_t> sorted = scc;
    std::sort(sorted.begin(), sorted.end());
    sealed_.emplace(comp, std::move(sorted));
  }
  bool in_component(std::uint64_t code, std::int32_t comp) const {
    const auto it = sealed_.find(comp);
    return it != sealed_.end() &&
           std::binary_search(it->second.begin(), it->second.end(), code);
  }

 private:
  static constexpr std::uint32_t kSlabBits = 20;  // 1M ids / 4 MB per slab
  static constexpr std::uint32_t kSlabMask = (1u << kSlabBits) - 1;

  std::uint32_t slab_get(std::uint32_t id) const {
    return slabs_[id >> kSlabBits][id & kSlabMask];
  }
  void slab_set(std::uint32_t id, std::uint32_t v) {
    const std::uint32_t slab = id >> kSlabBits;
    // Visit ids are assigned in push order, so at most one new slab at a
    // time; the loop only guards the first touch.
    while (slabs_.size() <= slab) {
      slabs_.push_back(
          std::make_unique<std::uint32_t[]>(std::size_t{1} << kSlabBits));
    }
    slabs_[slab][id & kSlabMask] = v;
  }

  StampedDistanceArray index_;
  std::vector<std::unique_ptr<std::uint32_t[]>> slabs_;
  std::vector<std::uint64_t> on_stack_;
  std::unordered_map<std::int32_t, std::vector<std::uint64_t>> sealed_;
};

}  // namespace

ClosureReport check_closed_store(const StateSpace& space,
                                 const PredicateFn& predicate,
                                 const std::vector<std::size_t>& actions,
                                 const StoreConfig& config) {
  obs::Span span("store.closure");
  obs::ProgressMeter meter("closure", space.size());
  ThreadPool pool(config.threads);
  const std::uint64_t grain = aligned_grain(config);
  std::vector<ClosureReport> chunks(chunk_count(space.size(), grain));
  parallel_for_chunked(
      pool, 0, space.size(), grain,
      [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
          unsigned worker) {
        (void)worker;
        obs::Span chunk_span("sweep.closure.chunk", &sweep_chunk_histogram());
        chunks[chunk] =
            scan_closure_range_odometer(space, predicate, actions, lo, hi);
        meter.add(hi - lo);
      });

  // In-order reduction replaying the serial scan's early exit at the first
  // violating chunk, so counts match the serial report bit for bit.
  ClosureReport report;
  for (ClosureReport& c : chunks) {
    report.states_checked += c.states_checked;
    report.transitions_checked += c.transitions_checked;
    if (!c.closed) {
      report.closed = false;
      report.violation = std::move(c.violation);
      detail::record_closure_metrics(report);
      return report;
    }
  }
  report.closed = true;
  detail::record_closure_metrics(report);
  return report;
}

ClosureReport check_closed_store(const StateSpace& space,
                                 const PredicateFn& predicate,
                                 const StoreConfig& config) {
  return check_closed_store(space, predicate,
                            non_fault_actions(space.program()), config);
}

ConvergenceReport check_convergence_store(const StateSpace& space,
                                          const PredicateFn& S,
                                          const PredicateFn& T,
                                          const StoreConfig& config) {
  obs::Span span("store.convergence");
  ThreadPool pool(config.threads);
  ConvergenceReport report;
  const std::uint64_t grain = aligned_grain(config);
  const TwoBitArray flags =
      evaluate_flags_store(pool, space, S, T, grain, report);
  const std::vector<std::size_t> actions = non_fault_actions(space.program());
  if (config.backend == StoreBackend::kLegacyDense) {
    CsrSuccessors succ =
        build_region_adjacency(pool, space, flags, actions, grain);
    detail::DenseDfsBookkeeping bk(space.size());
    return detail::check_convergence_core_impl(space, flags, succ,
                                               std::move(report), bk);
  }
  if (std::optional<ConvergenceReport> fast =
          try_eliminate(pool, space, flags, actions, config, report)) {
    detail::record_convergence_metrics(*fast);
    return *fast;
  }

  // First pass with 16-bit distances (~5 bytes/state total). Convergence
  // spans beyond 65535 steps are possible in principle, so on overflow the
  // identical traversal restarts from the post-flags report with 32-bit
  // distances — flags are reused, bookkeeping and successor state are
  // rebuilt fresh.
  {
    ConvergenceReport attempt = report;
    CompactDfsBookkeeping<std::uint16_t> bk(space.size());
    ProgramSuccessors succ(space, actions);
    try {
      return detail::check_convergence_core_impl(space, flags, succ,
                                                 std::move(attempt), bk);
    } catch (const DistanceOverflow&) {
    }
  }
  CompactDfsBookkeeping<std::uint32_t> bk(space.size());
  ProgramSuccessors succ(space, actions);
  return detail::check_convergence_core_impl(space, flags, succ,
                                             std::move(report), bk);
}

ConvergenceReport check_convergence_weakly_fair_store(
    const StateSpace& space, const PredicateFn& S, const PredicateFn& T,
    const StoreConfig& config) {
  obs::Span span("store.convergence_fair");
  ThreadPool pool(config.threads);
  ConvergenceReport report;
  const std::uint64_t grain = aligned_grain(config);
  const TwoBitArray flags =
      evaluate_flags_store(pool, space, S, T, grain, report);
  const std::vector<std::size_t> actions = non_fault_actions(space.program());
  if (config.backend == StoreBackend::kLegacyDense) {
    CsrSuccessors succ =
        build_region_adjacency(pool, space, flags, actions, grain);
    detail::DenseTarjanBookkeeping bk(space.size());
    return detail::check_convergence_weakly_fair_core_impl(
        space, flags, succ, actions, std::move(report), bk);
  }
  if (std::optional<ConvergenceReport> fast =
          try_eliminate(pool, space, flags, actions, config, report)) {
    // Tarjan leaves the worst case at 0, and every state of an acyclic
    // region is its own component.
    fast->max_steps_to_S = 0;
    if (obs::Metrics::enabled()) {
      obs::Registry::instance()
          .counter("checker.scc.components")
          .add(fast->region_states);
    }
    detail::record_convergence_metrics(*fast);
    return *fast;
  }
  ProgramSuccessors succ(space, actions);
  CompactTarjanBookkeeping bk(space.size());
  return detail::check_convergence_weakly_fair_core_impl(
      space, flags, succ, actions, std::move(report), bk);
}

std::optional<VariantFunction> compute_variant_store(const StateSpace& space,
                                                     const PredicateFn& S,
                                                     const StoreConfig& config) {
  obs::Span span("store.variant");
  ThreadPool pool(config.threads);
  ConvergenceReport report;
  const TwoBitArray flags = evaluate_flags_store(
      pool, space, S, true_predicate(), aligned_grain(config), report);
  const std::vector<std::size_t> actions = non_fault_actions(space.program());
  ProgramSuccessors succ(space, actions);
  // u32 distances directly: the dist vector doubles as the variant values,
  // so the u16 first-attempt trick would force a copy-widen on success.
  CompactDfsBookkeeping<std::uint32_t> bk(space.size());
  report = detail::check_convergence_core_impl(space, flags, succ,
                                               std::move(report), bk);
  if (report.verdict != ConvergenceVerdict::kConverges) return std::nullopt;
  return VariantFunction(space, std::move(bk.dist_));
}

StateSet compute_reachable_store(const StateSpace& space,
                                 const PredicateFn& start,
                                 const std::vector<std::size_t>& actions,
                                 const StoreConfig& config,
                                 const FaultSpanOptions& opts) {
  FrontierEngine engine(space, config);
  return engine.reachable(start, actions, opts);
}

StateSet compute_fault_span_store(const StateSpace& space,
                                  const PredicateFn& S,
                                  const std::vector<std::size_t>& fault_actions,
                                  const StoreConfig& config,
                                  const FaultSpanOptions& opts) {
  std::vector<std::size_t> actions = non_fault_actions(space.program());
  actions.insert(actions.end(), fault_actions.begin(), fault_actions.end());
  return compute_reachable_store(space, S, actions, config, opts);
}

}  // namespace nonmask::store
