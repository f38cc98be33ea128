// Serial microprobes of the per-transition layers (core, store, engine).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace jobbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

double median(std::vector<double> v);

/// Every probe, named "<workload>.<layer>.<probe>", over each workload's
/// own design. `threads` is the worker count of the multi-threaded probes.
std::vector<Metric> run_probes(bool small, std::uint64_t seed, unsigned threads);

}  // namespace jobbench
