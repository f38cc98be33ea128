// In-memory span recorder for the traced run.
//
// Spans are recorded by the benchmark's own code around each call into a
// layer's public function (the library's own obs tracing stays off). They
// stay in memory while the run executes and are written once, at the end,
// as Chrome trace-event JSON (load it in chrome://tracing or Perfetto).
//
// A span's layer is its name up to the first '.', e.g. "checker" for
// "checker.closure_S". A layer's self time is the summed duration of its
// spans minus the part covered by their child spans.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace jobbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  ///< index of the enclosing span, -1 for a root
  int job = -1;     ///< id of the job the span belongs to, -1 for none

  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

class Tracer {
 public:
  /// Open a span under the innermost open one; returns its index.
  int begin(std::string name, int job) {
    Span s;
    s.name = std::move(name);
    s.parent = open_.empty() ? -1 : open_.back();
    s.job = job;
    s.start_ns = now_ns();
    spans_.push_back(std::move(s));
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void end(int index) {
    spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Self seconds per layer over the spans of `job`.
  std::map<std::string, double> self_seconds(int job) const;

  /// Chrome trace-event JSON ("X" complete events, microseconds). The
  /// `context` object (already rendered JSON) is stored as metadata.
  void write_chrome(std::ostream& out, const std::string& context) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span; closes on scope exit.
class Scope {
 public:
  Scope(Tracer& tracer, std::string name, int job)
      : tracer_(tracer), index_(tracer.begin(std::move(name), job)) {}
  ~Scope() { tracer_.end(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  int index_;
};

std::string layer_of(const std::string& span_name);

}  // namespace jobbench
