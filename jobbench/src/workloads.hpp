// The four verification-job workloads, their generated inputs, and the
// output checks each job's report must pass.
//
// Every workload is a Dijkstra K-state ring, so the protocol stays fixed
// and only the layer under load changes (README.md says why each one is
// there). The benchmark generates every input from its seed; the library
// only ever sees the generated spec text (or, for the native workload,
// the hand-coded factory's design).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "spec/compile.hpp"
#include "util/json.hpp"

namespace jobbench {

enum class Workload { kRingCheck, kRingFairNative, kRingCampaign, kRingContainment };

const char* name(Workload w);
std::optional<Workload> parse_workload(std::string_view text);
const std::vector<Workload>& all_workloads();

/// Problem sizes. The full sizes are the benchmark's; the small ones keep
/// the benchmark's own tests fast.
struct Sizes {
  int ring_n = 7;  ///< processes of the check / fair / containment ring
  int ring_k = 9;
  int byzantine = 3;  ///< the containment job's Byzantine process
  int campaign_n = 64;
  int campaign_k = 65;
  int campaign_faults = 8;  ///< corrupt-k-variables k, struck at step 0
  std::size_t campaign_trials = 8000;
};
Sizes sizes(bool small);

/// The exact outputs a correct job reports at these sizes.
struct Expected {
  std::uint64_t states = 0;  ///< the ring's state-space size, K^N
  std::uint64_t states_in_S = 0;
  std::uint64_t region_states = 0;
  std::uint64_t transitions = 0;  ///< unfair convergence transitions
  std::uint64_t max_steps_to_S = 0;
  std::uint64_t closure_T_transitions = 0;
  int radius = 0;
  int horizon = 0;
  std::uint64_t levels = 0;
};
Expected expected(bool small);

/// Everything one job needs, generated from the workload seed.
struct Inputs {
  Workload workload = Workload::kRingCheck;
  bool small = false;
  unsigned threads = 1;
  std::uint64_t seed = 1;
  std::string spec_text;  ///< empty for the native workload
};
Inputs make_inputs(Workload w, bool small, unsigned threads, std::uint64_t seed);

/// The job's set-up: parse + validate + compile the spec text, or build
/// the hand-coded design for the native workload.
nonmask::spec::CompiledSpec prepare(const Inputs& in);

/// What the output check concluded about one job.
struct Outcome {
  std::uint64_t attempted = 1;  ///< operations: 1 job, or the campaign's trials
  std::uint64_t failed = 0;
  std::string problem;  ///< first mismatch, empty when the job is correct

  // Work counts behind the rates (see README.md, "End-to-end metrics").
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  std::uint64_t campaign_steps = 0;  ///< steps aggregate (sum) of a campaign
  std::uint64_t region_states = 0;   ///< ¬S states a convergence pass explored
  std::uint64_t levels = 0;          ///< BFS depth of a containment region
};

/// Check one job's RunReport against the expected outputs. `campaign_steps`
/// is the steps aggregate the campaign must reproduce (0 = not known yet).
/// `corrupt` flips the report's verdict first; the benchmark's own tests
/// use it to show that a wrong verdict is counted as failed.
Outcome check_report(const Inputs& in, const std::string& report_json,
                     std::uint64_t campaign_steps, bool corrupt);

/// Transitions of the containment job's composed program∪adversary system
/// over its whole state space: the containment workload's transition count.
std::uint64_t composed_transitions(const Inputs& in);

}  // namespace jobbench
