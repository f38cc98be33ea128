#include "store/store_check.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <unordered_map>

#include "checker/convergence_core.hpp"
#include "checker/scc_core.hpp"
#include "core/candidate.hpp"
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
