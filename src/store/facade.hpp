// Backend-dispatch facade: every verification entry point in one place,
// switched by StoreConfig::backend.
//
// There is one serial reference checker (src/checker/) and one parallel
// pipeline (store_check.hpp, frontier.hpp); the backends differ only in
// the pipeline's convergence successor source and bookkeeping:
//
//   kLegacyDense — a precomputed CSR adjacency and dense per-code arrays;
//     memory O(bytes per state), fastest at nproc threads, the
//     configuration every result before the store existed was produced
//     with. Runs at one resolved thread, or over a space that fits in one
//     grain, call the serial reference checkers directly and create no
//     thread pool.
//   kStore       — on-the-fly successors and packed bookkeeping; bits per
//     state, viable at 10^8 codes.
//
// The two backends are contractually byte-identical: same report structs,
// same counts, same counterexamples, at any thread count. scripts/check.sh
// and CI diff them on every protocol in the suite, and
// tests/store_equivalence_test.cpp checks both against the serial
// reference. Callers (examples, resilience, synthesis) go through *_via
// and never pick a backend themselves — NONMASK_STORE_BACKEND /
// NONMASK_STATE_BUDGET select it at run time via StoreConfig::from_env().
//
// Every checker path — closure, convergence (unfair and weakly-fair SCC),
// reachability/fault-span, and variant extraction — runs store-native
// under kStore. The one residual fallback (state spaces whose code range
// exceeds the u32 dense visit-id space of the compact Tarjan bookkeeping)
// is no longer silent: backend_fallback_reason() names it, and run-report
// writers record it.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "checker/closure_check.hpp"
#include "checker/convergence_check.hpp"
#include "checker/fault_span.hpp"
#include "checker/variant.hpp"
#include "store/config.hpp"

namespace nonmask::store {

/// The on-the-fly successor source of the store traversals; an alias kept
/// so callers can keep naming it from the store namespace.
using StoreBackedSuccessors = ProgramSuccessors;

ClosureReport check_closed_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& predicate,
                               const std::vector<std::size_t>& actions);

ClosureReport check_closed_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& predicate);

ConvergenceReport check_convergence_via(const StoreConfig& config,
                                        const StateSpace& space,
                                        const PredicateFn& S,
                                        const PredicateFn& T);

ConvergenceReport check_convergence_weakly_fair_via(const StoreConfig& config,
                                                    const StateSpace& space,
                                                    const PredicateFn& S,
                                                    const PredicateFn& T);

/// compute_variant through the selected backend (store-native single
/// traversal under kStore; the serial reference's double traversal
/// otherwise).
std::optional<VariantFunction> compute_variant_via(const StoreConfig& config,
                                                   const StateSpace& space,
                                                   const PredicateFn& S);

/// Why the compact backend cannot serve this state-space size, or nullopt
/// when it can (or when the config never asked for it). Currently the one
/// reason is a code range at or beyond 2^32-1, which would overflow the
/// u32 dense visit ids of the compact Tarjan/DFS bookkeeping. Run-report
/// writers surface this as `backend_fallback_reason` instead of silently
/// checking on the dense path.
std::optional<std::string> backend_fallback_reason_for_size(
    const StoreConfig& config, std::uint64_t states);

/// backend_fallback_reason_for_size over a built state space.
std::optional<std::string> backend_fallback_reason(const StoreConfig& config,
                                                   const StateSpace& space);

StateSet compute_reachable_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& start,
                               const std::vector<std::size_t>& actions,
                               const FaultSpanOptions& opts = {});

StateSet compute_fault_span_via(const StoreConfig& config,
                                const StateSpace& space, const PredicateFn& S,
                                const std::vector<std::size_t>& fault_actions,
                                const FaultSpanOptions& opts = {});

/// verify_tolerance (closure of S and T + convergence) through the
/// selected backend.
ToleranceReport verify_tolerance_via(const StoreConfig& config,
                                     const StateSpace& space,
                                     const Design& design);

}  // namespace nonmask::store
