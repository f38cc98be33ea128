// The store pipeline: the one parallel implementation of the exhaustive
// checks, serving both backends of store/facade.hpp.
//
// Same reports as the serial reference checker (closure_check.hpp,
// convergence_check.hpp, fault_span.hpp). Scans ripple-decode with
// OdometerCursor instead of per-code div/mod, predicate flags live in a
// 2-bit array, and reachability runs through the FrontierEngine with
// optional disk spill. The convergence passes differ by backend only in
// their successor source and DFS/SCC bookkeeping:
//   kStore        on-the-fly successors; 2-bit colors, distances starting
//                 at 16 bits (widened transparently past 65535 steps), and
//                 compact Tarjan arrays. With more than one worker both
//                 convergence checks first run a parallel in-degree
//                 elimination over T ∧ ¬S, which decides a converging
//                 design without the serial pass and falls back to it on
//                 a deadlock, a cycle, or a successor outside T ∪ S;
//   kLegacyDense  a chunk-parallel precomputed CSR adjacency (the fastest
//                 source at nproc threads, at 8+ bytes per code) and the
//                 dense per-code bookkeeping of the serial checker.
// Every function here is bound by the byte-identity contract: for the same
// inputs it returns the same report bytes as the serial checker, at any
// thread count (see DESIGN.md §11).
#pragma once

#include <optional>

#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/fault_span.hpp"
#include "checker/variant.hpp"
#include "store/config.hpp"

namespace nonmask::store {

/// check_closed over the given action indices, chunk-parallel with
/// odometer scans.
ClosureReport check_closed_store(const StateSpace& space,
                                 const PredicateFn& predicate,
                                 const std::vector<std::size_t>& actions,
                                 const StoreConfig& config);

/// Closure under all non-fault actions.
ClosureReport check_closed_store(const StateSpace& space,
                                 const PredicateFn& predicate,
                                 const StoreConfig& config);

/// Unfair-daemon convergence: parallel flag pass into a TwoBitArray, then
/// the shared DFS core (checker/convergence_core.hpp). Under kStore with
/// more than one worker a parallel elimination runs first and the DFS only
/// when it bails; the DFS runs over 2-bit colors, narrow distances, and a
/// sparse on-stack map (~5 bytes/state instead of ~13). Under kLegacyDense
/// it runs over the CSR adjacency and dense bookkeeping.
ConvergenceReport check_convergence_store(const StateSpace& space,
                                          const PredicateFn& S,
                                          const PredicateFn& T,
                                          const StoreConfig& config);

/// Weakly-fair convergence (Tarjan/SCC + fair-escape analysis). Under
/// kStore with more than one worker the same elimination runs first: a
/// region it clears has no cycle, so Tarjan is skipped. Otherwise, under
/// kStore the bookkeeping is store-native: the visit index lives in a
/// stamped u32 array over the code range, lowlinks in slab-grown arenas
/// indexed by dense visit id, on-stack marks in one bit per state, and SCC
/// membership in sorted snapshots of the nontrivial components only —
/// never the dense ~13-bytes/state int32 arrays, which kLegacyDense uses
/// over the CSR adjacency. Reports are byte-identical to
/// check_convergence_weakly_fair at any thread count.
ConvergenceReport check_convergence_weakly_fair_store(
    const StateSpace& space, const PredicateFn& S, const PredicateFn& T,
    const StoreConfig& config);

/// compute_variant on the compact backend: one shared-core DFS with u32
/// distances (parallel flag sweep, 2-bit colors) materializes the
/// longest-path-to-S vector directly, instead of the legacy path's
/// check-then-recompute double traversal. Same dist vector byte-for-byte.
std::optional<VariantFunction> compute_variant_store(const StateSpace& space,
                                                     const PredicateFn& S,
                                                     const StoreConfig& config);

/// compute_reachable through the FrontierEngine.
StateSet compute_reachable_store(const StateSpace& space,
                                 const PredicateFn& start,
                                 const std::vector<std::size_t>& actions,
                                 const StoreConfig& config,
                                 const FaultSpanOptions& opts = {});

/// compute_fault_span (program actions + fault actions) through the
/// FrontierEngine.
StateSet compute_fault_span_store(const StateSpace& space,
                                  const PredicateFn& S,
                                  const std::vector<std::size_t>& fault_actions,
                                  const StoreConfig& config,
                                  const FaultSpanOptions& opts = {});

}  // namespace nonmask::store
