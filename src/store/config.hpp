// Configuration switch for the compact parallel state store.
//
// Every checker entry point is dispatched through a StoreConfig (see
// store/facade.hpp): `backend` selects the convergence successor source
// and bookkeeping of the one parallel pipeline — the dense backend's
// precomputed adjacency and per-code arrays sized by the full code range,
// or the store backend's on-the-fly successors and packed bitmaps. The two
// backends are contractually byte-identical on every report they produce —
// the store backend exists to lift the *state budget* (from ~32M to
// 10^8-10^9 states), not to change any answer.
#pragma once

#include <cstdint>
#include <string>

namespace nonmask::store {

enum class StoreBackend {
  kLegacyDense,  ///< dense per-code arrays + precomputed adjacency
  kStore,        ///< packed bitmaps + on-the-fly successors
};

const char* to_string(StoreBackend b) noexcept;

struct StoreConfig {
  StoreBackend backend = StoreBackend::kLegacyDense;

  /// State budget passed to StateSpace construction. The legacy default
  /// (32M) matches StateSpace::kDefaultBudget; the store backend is
  /// routinely run two to three orders of magnitude higher.
  std::uint64_t budget = 32'000'000;

  /// Worker threads for the parallel pipeline; 0 = NONMASK_THREADS env,
  /// else hardware concurrency. The dense backend runs the serial
  /// reference checkers when this resolves to 1.
  unsigned threads = 0;

  /// Codes per scan chunk. Results never depend on it; the dense backend
  /// runs the serial reference checkers on spaces of at most one chunk.
  std::uint64_t grain = 1 << 16;

  /// log2 of the concurrent-set shard count (power-of-two shards).
  unsigned shard_bits = 6;

  /// Seed for the set's mixing-finalizer hash (any value works; fixed by
  /// default so shard occupancy is reproducible).
  std::uint64_t hash_seed = 0x5307e5eedULL;

  /// Frontier codes kept in memory per BFS level before spilling the level
  /// to a temp file; 0 disables spilling.
  std::uint64_t spill_threshold = 0;
  /// Directory for spill files; empty = $TMPDIR, else /tmp.
  std::string spill_dir;

  /// Environment-driven default:
  ///   NONMASK_STORE_BACKEND = "store" | "dense"  (default dense)
  ///   NONMASK_STATE_BUDGET  = max states for StateSpace construction
  ///   NONMASK_THREADS       = resolved by the pool as usual
  static StoreConfig from_env();
};

}  // namespace nonmask::store
