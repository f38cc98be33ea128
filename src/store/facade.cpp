#include "store/facade.hpp"

#include "core/candidate.hpp"
#include "parallel/thread_pool.hpp"
#include "store/store_check.hpp"

namespace nonmask::store {

namespace {

/// The dense backend hands runs at one resolved thread, and spaces that fit
/// in one grain, to the serial reference checkers — which create no thread
/// pool, so synthesis can call verify_tolerance_via per candidate from
/// inside pool workers.
bool runs_serial_reference(const StoreConfig& config,
                           const StateSpace& space) {
  if (config.backend != StoreBackend::kLegacyDense) return false;
  const unsigned threads =
      config.threads == 0 ? default_threads() : config.threads;
  return threads <= 1 || space.size() <= config.grain;
}

}  // namespace

ClosureReport check_closed_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& predicate,
                               const std::vector<std::size_t>& actions) {
  if (runs_serial_reference(config, space)) {
    return check_closed(space, predicate, actions);
  }
  return check_closed_store(space, predicate, actions, config);
}

ClosureReport check_closed_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& predicate) {
  return check_closed_via(config, space, predicate,
                          non_fault_actions(space.program()));
}

ConvergenceReport check_convergence_via(const StoreConfig& config,
                                        const StateSpace& space,
                                        const PredicateFn& S,
                                        const PredicateFn& T) {
  if (runs_serial_reference(config, space)) {
    return check_convergence(space, S, T);
  }
  return check_convergence_store(space, S, T, config);
}

ConvergenceReport check_convergence_weakly_fair_via(const StoreConfig& config,
                                                    const StateSpace& space,
                                                    const PredicateFn& S,
                                                    const PredicateFn& T) {
  StoreConfig effective = config;
  if (backend_fallback_reason(config, space)) {
    effective.backend = StoreBackend::kLegacyDense;
  }
  if (runs_serial_reference(effective, space)) {
    return check_convergence_weakly_fair(space, S, T);
  }
  return check_convergence_weakly_fair_store(space, S, T, effective);
}

std::optional<VariantFunction> compute_variant_via(const StoreConfig& config,
                                                   const StateSpace& space,
                                                   const PredicateFn& S) {
  if (config.backend == StoreBackend::kStore &&
      !backend_fallback_reason(config, space)) {
    return compute_variant_store(space, S, config);
  }
  return compute_variant(space, S);
}

std::optional<std::string> backend_fallback_reason_for_size(
    const StoreConfig& config, std::uint64_t states) {
  if (config.backend != StoreBackend::kStore) return std::nullopt;
  // The compact Tarjan/DFS bookkeeping assigns each visited state a dense
  // u32 visit id, reserving 0xFFFFFFFF as the "unvisited" stamp.
  constexpr std::uint64_t kMaxCompactStates = 0xFFFFFFFFull;
  if (states >= kMaxCompactStates) {
    return "state space of " + std::to_string(states) +
           " codes exceeds the u32 dense visit-id range of the compact "
           "bookkeeping (max " +
           std::to_string(kMaxCompactStates - 1) + "); dense path used";
  }
  return std::nullopt;
}

std::optional<std::string> backend_fallback_reason(const StoreConfig& config,
                                                   const StateSpace& space) {
  return backend_fallback_reason_for_size(config, space.size());
}

StateSet compute_reachable_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& start,
                               const std::vector<std::size_t>& actions,
                               const FaultSpanOptions& opts) {
  if (runs_serial_reference(config, space)) {
    return compute_reachable(space, start, actions, opts);
  }
  return compute_reachable_store(space, start, actions, config, opts);
}

StateSet compute_fault_span_via(const StoreConfig& config,
                                const StateSpace& space, const PredicateFn& S,
                                const std::vector<std::size_t>& fault_actions,
                                const FaultSpanOptions& opts) {
  std::vector<std::size_t> actions = non_fault_actions(space.program());
  actions.insert(actions.end(), fault_actions.begin(), fault_actions.end());
  return compute_reachable_via(config, space, S, actions, opts);
}

ToleranceReport verify_tolerance_via(const StoreConfig& config,
                                     const StateSpace& space,
                                     const Design& design) {
  ToleranceReport report;
  report.S_closed = check_closed_via(config, space, design.S()).closed;
  report.T_closed = check_closed_via(config, space, design.T()).closed;
  report.convergence = check_convergence_via(config, space, design.S(),
                                             design.T());
  return report;
}

}  // namespace nonmask::store
