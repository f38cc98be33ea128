// Rate-limited progress reporting for long checker, sweep, and campaign
// runs: a process-wide sink plus per-operation meters that print at most
// one line per interval ("states explored, states/sec, frontier size, ...").
//
// Off by default: with no sink configured, ProgressMeter::add is one
// relaxed atomic load and a return. Instrumentation points call add() at
// batch granularity (per slice, chunk, BFS level, or trial), so enabled
// reporting stays off the hot paths too. Meters are safe to tick from many
// threads: counts accumulate with relaxed atomics and the interval gate
// elects one reporting thread by compare-exchange.
//
// Meters double as the telemetry sampler's work-progress source: when
// Metrics::enabled() is true at construction, the meter registers itself,
// keeps done_ accumulating even without a progress sink, and — if its
// label names a state-exploration pass — feeds the states_explored registry
// counter. With both progress and metrics off the cost of add() is
// unchanged (one relaxed load plus a member test).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>

namespace nonmask::obs {

class Counter;
struct MeterSample;

/// Process-wide progress configuration.
class Progress {
 public:
  /// Route progress lines to `sink` (must outlive reporting) at most once
  /// per `interval_ms` per meter.
  static void enable(std::ostream* sink, unsigned interval_ms = 500);
  static void disable();
  static bool active() noexcept;
  static unsigned interval_ms() noexcept;
  /// Serialized write of one progress line (internal, used by meters).
  static void write_line(const char* label, std::uint64_t done,
                         std::uint64_t total, double per_sec,
                         const char* aux_text);
};

/// Progress over one long-running operation. `total` == 0 means unknown
/// (no percentage is printed). Construction is cheap; destruction emits a
/// final line only if a periodic line was already printed.
class ProgressMeter {
 public:
  explicit ProgressMeter(const char* label, std::uint64_t total = 0) noexcept;
  ~ProgressMeter();
  ProgressMeter(const ProgressMeter&) = delete;
  ProgressMeter& operator=(const ProgressMeter&) = delete;

  /// Account `n` more units of work; prints when the interval elapsed.
  void add(std::uint64_t n) noexcept;

  /// Publish an auxiliary "label=value" pair shown on subsequent lines
  /// (e.g. frontier size, SCCs found). `label` must be a string literal;
  /// up to 4 distinct labels per meter, extras are dropped.
  void aux(const char* label, std::uint64_t value) noexcept;

  std::uint64_t done() const noexcept {
    return done_.load(std::memory_order_relaxed);
  }

  /// Fill `out` with label/done/total and the published aux pairs — the
  /// telemetry sampler's read path (safe concurrently with add/aux).
  void sample_into(MeterSample& out) const;

 private:
  void maybe_report(bool force) noexcept;

  const char* label_;
  std::uint64_t total_;
  bool telemetry_ = false;       ///< Metrics::enabled() at construction
  Counter* explored_ = nullptr;  ///< states_explored, for exploration labels
  std::atomic<std::uint64_t> done_{0};
  std::uint64_t start_us_ = 0;
  std::atomic<std::uint64_t> last_report_us_{0};
  std::atomic<bool> reported_{false};

  struct AuxSlot {
    std::atomic<const char*> label{nullptr};
    std::atomic<std::uint64_t> value{0};
  };
  AuxSlot aux_[4];
};

}  // namespace nonmask::obs
