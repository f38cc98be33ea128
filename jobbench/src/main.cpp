// jobbench: the verification-job benchmark program. run.py builds it and
// runs each mode in a fresh process:
//
//   jobbench e2e    --workload W --seed N --seconds S [--small] [--corrupt-verdict]
//   jobbench trace  --seed N --out FILE [--small]
//   jobbench probes --seed N [--small]
//
// e2e runs workload W as a closed loop of verification jobs (one job at a
// time, each on every hardware thread) with every tracing facility off.
// trace runs each workload once untraced and once with spans around every
// layer call, then reruns the parallel passes at one thread. probes runs
// the serial per-transition microprobes. Each mode prints one JSON object
// as its last line of standard output.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "checker/containment.hpp"
#include "checker/state_space.hpp"
#include "obs/report.hpp"
#include "obs/rss.hpp"
#include "parallel/campaign.hpp"
#include "probes.hpp"
#include "resilience/adversary.hpp"
#include "spec/job.hpp"
#include "spec/spec.hpp"
#include "store/facade.hpp"
#include "trace.hpp"
#include "util/json.hpp"
#include "workloads.hpp"

namespace jobbench {
namespace {

using nonmask::spec::CompiledSpec;

volatile std::uint64_t g_sink = 0;

struct Args {
  std::string mode;
  std::optional<Workload> workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool small = false;
  bool corrupt = false;
  std::string out;
  unsigned threads = std::max(1u, std::thread::hardware_concurrency());
};

double seconds_since(std::int64_t t0) {
  return static_cast<double>(now_ns() - t0) * 1e-9;
}

// CPU seconds of every thread of this process.
double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

const char* sanitizer() {
#if defined(__SANITIZE_ADDRESS__)
  return "address";
#elif defined(__SANITIZE_THREAD__)
  return "thread";
#else
  return "none";
#endif
}

bool optimized() {
#if defined(__OPTIMIZE__)
  return true;
#else
  return false;
#endif
}

std::string context_json(const Args& a) {
  std::ostringstream o;
  o << "{\"nproc\":" << std::thread::hardware_concurrency()
    << ",\"threads\":" << a.threads
    << ",\"compiler\":" << nonmask::util::json_quote(std::string("g++ ") + __VERSION__)
    << ",\"build_type\":" << nonmask::util::json_quote(JOBBENCH_BUILD_TYPE)
    << ",\"cxx_flags\":" << nonmask::util::json_quote(JOBBENCH_CXX_FLAGS)
    << ",\"optimized\":" << (optimized() ? "true" : "false")
    << ",\"sanitizer\":\"" << sanitizer() << "\""
    << ",\"small\":" << (a.small ? "true" : "false") << "}";
  return o.str();
}

// Everything a mode reports; printed as the last stdout line.
struct Result {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;  // key, JSON

  void tally(const std::string& what, const Outcome& o) {
    attempted += o.attempted;
    failed += o.failed;
    if (!o.problem.empty()) problems.push_back(what + ": " + o.problem);
  }
  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

std::string number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

void print(const Args& a, const Result& r) {
  std::ostringstream o;
  o << "{\"context\":" << context_json(a) << ",\"attempted\":" << r.attempted
    << ",\"failed\":" << r.failed << ",\"problems\":[";
  for (std::size_t i = 0; i < r.problems.size(); ++i) {
    o << (i ? "," : "") << nonmask::util::json_quote(r.problems[i]);
  }
  o << "],\"metrics\":{";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const Metric& m = r.metrics[i];
    o << (i ? "," : "") << nonmask::util::json_quote(m.name) << ":{\"value\":"
      << number(m.value) << ",\"unit\":" << nonmask::util::json_quote(m.unit)
      << "}";
  }
  o << "},\"info\":{";
  for (std::size_t i = 0; i < r.info.size(); ++i) {
    o << (i ? "," : "") << nonmask::util::json_quote(r.info[i].first) << ":"
      << r.info[i].second;
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

bool builds_state_space(Workload w) {
  return w == Workload::kRingCheck || w == Workload::kRingFairNative;
}

// One untraced job, from spec text (or factory) to the RunReport JSON. A
// job that throws yields a non-JSON report, which fails its output check.
std::string run_job(const Inputs& in) {
  try {
    return nonmask::spec::run_spec_job(prepare(in)).report_json;
  } catch (const std::exception& ex) {
    return std::string("job threw: ") + ex.what();
  }
}

// ---------------------------------------------------------------- e2e ---

int run_e2e(const Args& a) {
  const Workload w = *a.workload;
  const Inputs in = make_inputs(w, a.small, a.threads, a.seed);
  Result r;

  const std::uint64_t composed =
      w == Workload::kRingContainment ? composed_transitions(in) : 0;

  // The closed loop: the next job starts when the previous one finished;
  // no job starts that would likely end past the measuring window.
  std::vector<double> job_s, job_cpu_s, setup;
  Outcome last;
  std::uint64_t campaign_steps = 0;
  const std::int64_t loop_start = now_ns();
  do {
    const std::int64_t t0 = now_ns();
    const double cpu0 = process_cpu_seconds();
    const std::string report = run_job(in);
    job_s.push_back(seconds_since(t0));
    job_cpu_s.push_back(process_cpu_seconds() - cpu0);
    last = check_report(in, report, campaign_steps, a.corrupt);
    if (campaign_steps == 0) campaign_steps = last.campaign_steps;
    r.tally(std::string(name(w)) + " job " + std::to_string(job_s.size()), last);

    // Set-up cost: parse + validate + compile (or the factory), plus the
    // StateSpace the check jobs build. Sampled in a batch after every job,
    // once the job has brought the processor out of idle, so the median
    // spans the same window as the jobs. On a shared host the speed of a
    // single thread flips between two levels every few hundred ms; batches
    // of 0.3 s keep one level from owning a whole run's median.
    const std::int64_t batch_start = now_ns();
    for (int reps = 0; reps < 15 || seconds_since(batch_start) < 0.3; ++reps) {
      const std::int64_t s0 = now_ns();
      const CompiledSpec spec = prepare(in);
      if (builds_state_space(w)) {
        g_sink = g_sink + nonmask::StateSpace(spec.design.program).size();
      }
      setup.push_back(seconds_since(s0));
    }
  } while (seconds_since(loop_start) + median(job_s) <= a.seconds);

  const double job = median(job_s);
  const double transitions =
      static_cast<double>(w == Workload::kRingContainment ? composed : last.transitions);
  r.add("job_s", job, "s");
  r.add("setup_s", median(setup), "s");
  r.add("peak_rss_mb", nonmask::obs::peak_rss_mb(), "MB");
  r.add("transitions_per_s", transitions / job, "1/s");
  r.add("states_per_s", static_cast<double>(last.states) / job, "1/s");
  r.add("trials_per_s", static_cast<double>(last.attempted) / job, "1/s");

  auto list = [](const std::vector<double>& v) {
    std::string out = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      out += number(v[i]);
    }
    return out + "]";
  };
  r.info.emplace_back("job_s_samples", list(job_s));
  r.info.emplace_back("job_cpu_s_samples", list(job_cpu_s));
  r.info.emplace_back("jobs", std::to_string(job_s.size()));
  r.info.emplace_back("setup_samples", std::to_string(setup.size()));
  r.info.emplace_back("failed_frac",
                      number(static_cast<double>(r.failed) /
                             static_cast<double>(std::max<std::uint64_t>(r.attempted, 1))));
  r.info.emplace_back("transitions_per_job", number(transitions));
  r.info.emplace_back("states_per_job", number(static_cast<double>(last.states)));
  r.info.emplace_back("operations_per_job", std::to_string(last.attempted));
  print(a, r);
  return 0;
}

// -------------------------------------------------------------- trace ---

nonmask::store::StoreConfig store_config(const nonmask::spec::JobDecl& job,
                                          unsigned threads) {
  nonmask::store::StoreConfig config;
  config.backend = nonmask::store::StoreBackend::kStore;
  if (job.state_budget > 0) config.budget = job.state_budget;
  config.threads = threads;
  return config;
}

std::string provenance(const CompiledSpec& spec) {
  return "{\"name\":" + nonmask::util::json_quote(spec.spec_name) +
         ",\"schema\":" + nonmask::util::json_quote(spec.schema) +
         ",\"content_hash\":" + nonmask::util::json_quote(spec.content_hash) + "}";
}

// The campaign job's experiment and options, as the spec job runner
// builds them (random daemon, the spec's fault schedule, no deadline).
std::pair<nonmask::ConvergenceExperiment, nonmask::CampaignOptions> campaign_setup(
    const CompiledSpec& spec, unsigned threads) {
  const nonmask::spec::JobDecl& job = spec.job;
  nonmask::ConvergenceExperiment config;
  config.trials = job.trials;
  config.seed = job.seed;
  config.max_steps = job.max_steps;
  const nonmask::FaultSchedule schedule = spec.schedule;
  const std::uint64_t fault_seed = spec.fault_seed;
  config.make_perturb = [schedule, fault_seed](const nonmask::Program& p) {
    return schedule.hook(p, fault_seed);
  };
  nonmask::CampaignOptions opts;
  opts.threads = threads;
  opts.policy.max_retries = job.retries;
  opts.policy.backoff = std::chrono::milliseconds(job.backoff_ms);
  opts.store = store_config(job, threads);
  return {config, opts};
}

// The spec job runner's steps, each call into a layer wrapped in a span.
// The report carries the same sections the untraced job's does.
std::string traced_job(const Inputs& in, Tracer& tr, int job) {
  Scope root(tr, std::string("bench.") + name(in.workload), job);
  CompiledSpec spec;
  if (in.workload == Workload::kRingFairNative) {
    Scope s(tr, "protocols.factory", job);
    spec = prepare(in);
  } else {
    nonmask::spec::SpecDoc doc;
    {
      Scope s(tr, "spec.parse", job);
      doc = nonmask::spec::parse_spec(in.spec_text);
    }
    Scope s(tr, "spec.compile", job);
    spec = nonmask::spec::compile_spec(doc);
  }
  const nonmask::Design& d = spec.design;
  const nonmask::store::StoreConfig config = store_config(spec.job, in.threads);

  switch (in.workload) {
    case Workload::kRingCheck:
    case Workload::kRingFairNative: {
      std::optional<nonmask::StateSpace> space;
      {
        Scope s(tr, "checker.state_space", job);
        space.emplace(d.program, config.budget);
      }
      const nonmask::PredicateFn S = d.S();
      const nonmask::PredicateFn T = d.fault_span;
      nonmask::ClosureReport closure_S, closure_T;
      nonmask::ConvergenceReport convergence;
      {
        Scope s(tr, "checker.closure_S", job);
        closure_S = nonmask::store::check_closed_via(config, *space, S);
      }
      {
        Scope s(tr, "checker.closure_T", job);
        closure_T = nonmask::store::check_closed_via(config, *space, T);
      }
      if (spec.job.weakly_fair) {
        Scope s(tr, "checker.fair", job);
        convergence = nonmask::store::check_convergence_weakly_fair_via(config, *space, S, T);
      } else {
        Scope s(tr, "checker.converge", job);
        convergence = nonmask::store::check_convergence_via(config, *space, S, T);
      }
      Scope s(tr, "obs.report", job);
      nonmask::obs::RunReport report("spec_check", d.name);
      report.add("spec", provenance(spec));
      report.add_text("store_backend", nonmask::store::to_string(config.backend));
      report.add_number("state_budget", config.budget);
      const auto fallback = nonmask::store::backend_fallback_reason(config, *space);
      report.add_text("backend_fallback_reason", fallback ? *fallback : "");
      report.add("closure_S", nonmask::obs::to_json(closure_S));
      report.add("closure_T", nonmask::obs::to_json(closure_T));
      report.add("convergence", nonmask::obs::to_json(convergence));
      return report.to_json();
    }
    case Workload::kRingContainment: {
      nonmask::State legitimate;
      {
        Scope s(tr, "resilience.legitimate_state", job);
        nonmask::AdversaryOptions opts;
        opts.seed = spec.job.seed;
        legitimate = nonmask::legitimate_state(d, opts);
      }
      nonmask::ContainmentOptions copts;
      copts.config = config;
      if (spec.job.state_budget > 0) copts.state_budget = spec.job.state_budget;
      nonmask::ContainmentReport rep;
      {
        Scope s(tr, "checker.containment", job);
        rep = nonmask::measure_containment(d.program, spec.job.byzantine, legitimate, copts);
      }
      Scope s(tr, "obs.report", job);
      nonmask::obs::RunReport report("spec_containment", d.name);
      report.add("spec", provenance(spec));
      report.add_text("store_backend", nonmask::store::to_string(config.backend));
      report.add_number("state_budget", config.budget);
      report.add("containment", nonmask::containment_to_json(d.program, rep));
      return report.to_json();
    }
    case Workload::kRingCampaign: {
      const auto [experiment, opts] = campaign_setup(spec, in.threads);
      nonmask::CampaignResults results;
      {
        Scope s(tr, "parallel.campaign", job);
        results = nonmask::run_campaign(d, experiment, opts);
      }
      Scope s(tr, "obs.report", job);
      nonmask::obs::RunReport report("spec_campaign", d.name);
      report.add("spec", provenance(spec));
      report.add_number("trials", std::uint64_t{experiment.trials});
      report.add_number("seed", experiment.seed);
      report.add_text("store_backend", nonmask::store::to_string(opts.store.backend));
      report.add_number("state_budget", opts.store.budget);
      report.add_text("backend_fallback_reason", "");
      report.add("campaign", nonmask::obs::to_json(results.aggregate));
      return report.to_json();
    }
  }
  return {};
}

double span_seconds(const Tracer& tr, int job, const std::string& span) {
  double total = 0.0;
  for (const Span& s : tr.spans()) {
    if (s.job == job && s.name == span) total += s.seconds();
  }
  return total;
}

// A pass rerun at one thread, outside any job; returns its seconds.
template <class Fn>
double at_one_thread(Tracer& tr, const std::string& span, Fn&& fn) {
  const std::int64_t t0 = now_ns();
  {
    Scope s(tr, "scaling." + span + ".t1", -1);
    fn();
  }
  return seconds_since(t0);
}

// The one-thread reruns behind the thread-scaling metrics: each speedup is
// the rerun's seconds over the traced job's span of the same pass at nproc
// threads. The reruns' outputs are checked like the jobs'.
void scaling(const Inputs& in, Tracer& tr, int job, std::uint64_t campaign_steps,
             const std::string& prefix, Result& r) {
  const CompiledSpec spec = prepare(in);
  const nonmask::Design& d = spec.design;
  const nonmask::store::StoreConfig one = store_config(spec.job, 1);
  const Expected e = expected(in.small);
  const std::string what = prefix + "one-thread rerun";
  auto speedup = [&](const std::string& pass, double t1) {
    r.add(prefix + pass + "_speedup", t1 / span_seconds(tr, job, pass), "x");
  };
  switch (in.workload) {
    case Workload::kRingCheck:
    case Workload::kRingFairNative: {
      const nonmask::StateSpace space(d.program, one.budget);
      const nonmask::PredicateFn S = d.S();
      const nonmask::PredicateFn T = d.fault_span;
      nonmask::ClosureReport closure_T;
      speedup("checker.closure_T", at_one_thread(tr, "closure_T", [&] {
                closure_T = nonmask::store::check_closed_via(one, space, T);
              }));
      Outcome o;
      if (closure_T.transitions_checked != e.closure_T_transitions) {
        o.failed = 1;
        o.problem = "closure_T transitions differ at one thread";
      }
      const bool fair = spec.job.weakly_fair;
      nonmask::ConvergenceReport conv;
      speedup(fair ? "checker.fair" : "checker.converge",
              at_one_thread(tr, fair ? "fair" : "converge", [&] {
                conv = fair ? nonmask::store::check_convergence_weakly_fair_via(one, space, S, T)
                            : nonmask::store::check_convergence_via(one, space, S, T);
              }));
      if (conv.transitions != e.transitions && o.problem.empty()) {
        o.failed = 1;
        o.problem = "convergence transitions differ at one thread";
      }
      r.tally(what, o);
      break;
    }
    case Workload::kRingContainment: {
      nonmask::AdversaryOptions lopts;
      lopts.seed = spec.job.seed;
      const nonmask::State legitimate = nonmask::legitimate_state(d, lopts);
      nonmask::ContainmentOptions copts;
      copts.config = one;
      nonmask::ContainmentReport rep;
      speedup("checker.containment", at_one_thread(tr, "containment", [&] {
                rep = nonmask::measure_containment(d.program, spec.job.byzantine,
                                                   legitimate, copts);
              }));
      Outcome o;
      if (rep.reachable_states != e.states || rep.levels != e.levels) {
        o.failed = 1;
        o.problem = "containment region differs at one thread";
      }
      r.tally(what, o);
      break;
    }
    case Workload::kRingCampaign: {
      const auto [experiment, opts] = campaign_setup(spec, 1);
      nonmask::CampaignResults results;
      speedup("parallel.campaign", at_one_thread(tr, "campaign", [&] {
                results = nonmask::run_campaign(d, experiment, opts);
              }));
      Outcome o;
      o.attempted = experiment.trials;
      const auto steps = static_cast<std::uint64_t>(results.aggregate.steps.sum);
      if (steps != campaign_steps || results.aggregate.steps.count != experiment.trials) {
        o.failed = o.attempted;
        o.problem = "steps aggregate " + std::to_string(steps) +
                    " at one thread, " + std::to_string(campaign_steps) +
                    " at " + std::to_string(in.threads);
      }
      r.tally(what, o);
      break;
    }
  }
}

int run_trace(const Args& a) {
  Tracer tr;
  Result r;
  int job = 0;
  for (Workload w : all_workloads()) {
    const Inputs in = make_inputs(w, a.small, a.threads, a.seed);
    const std::string prefix = std::string(name(w)) + ".";

    std::int64_t t0 = now_ns();
    const std::string plain_report = run_job(in);
    const double plain = seconds_since(t0);
    const Outcome plain_outcome = check_report(in, plain_report, 0, false);
    r.tally(prefix + "untraced job", plain_outcome);

    t0 = now_ns();
    std::string report;
    try {
      report = traced_job(in, tr, job);
    } catch (const std::exception& ex) {
      report = std::string("traced job threw: ") + ex.what();
    }
    const double traced = seconds_since(t0);
    const Outcome o = check_report(in, report, plain_outcome.campaign_steps, false);
    r.tally(prefix + "traced job", o);

    try {
      scaling(in, tr, job, o.campaign_steps, prefix, r);
    } catch (const std::exception& ex) {
      Outcome threw;
      threw.failed = threw.attempted;
      threw.problem = std::string("threw: ") + ex.what();
      r.tally(prefix + "one-thread rerun", threw);
    }

    for (const auto& [layer, self] : tr.self_seconds(job)) {
      r.add(prefix + "self." + layer + "_s", self, "s");
    }
    r.add(prefix + "trace.overhead_ratio", traced / plain, "ratio");
    std::vector<std::string> passes = {"obs.report"};
    switch (w) {
      case Workload::kRingCheck:
        passes.insert(passes.end(), {"spec.parse", "spec.compile", "checker.closure_S",
                                     "checker.closure_T", "checker.converge"});
        break;
      case Workload::kRingFairNative:
        passes.insert(passes.end(), {"checker.closure_S", "checker.closure_T", "checker.fair"});
        break;
      case Workload::kRingContainment:
        passes.insert(passes.end(), {"spec.parse", "spec.compile", "checker.containment"});
        break;
      case Workload::kRingCampaign:
        passes.insert(passes.end(), {"spec.parse", "spec.compile", "parallel.campaign"});
        break;
    }
    for (const std::string& p : passes) {
      r.add(prefix + p + "_s", span_seconds(tr, job, p), "s");
    }
    if (builds_state_space(w)) {
      r.add(prefix + "checker.transitions", static_cast<double>(o.transitions), "count");
      r.add(prefix + "checker.region_states", static_cast<double>(o.region_states), "count");
      r.info.emplace_back(prefix + "states", std::to_string(o.states));
    } else if (w == Workload::kRingContainment) {
      r.add(prefix + "containment.reachable_states", static_cast<double>(o.states), "count");
      r.add(prefix + "containment.levels", static_cast<double>(o.levels), "count");
    } else {
      r.add(prefix + "campaign.steps", static_cast<double>(o.campaign_steps), "count");
    }
    r.info.emplace_back(prefix + "untraced_job_s", number(plain));
    r.info.emplace_back(prefix + "traced_job_s", number(traced));
    ++job;
  }
  std::ofstream out(a.out);
  tr.write_chrome(out, context_json(a));
  out.close();
  if (!out) r.problems.push_back("could not write " + a.out);
  r.info.emplace_back("chrome_trace", nonmask::util::json_quote(a.out));
  r.info.emplace_back("spans", std::to_string(tr.spans().size()));
  print(a, r);
  return 0;
}

int run_probes_mode(const Args& a) {
  Result r;
  r.metrics = run_probes(a.small, a.seed, a.threads);
  r.attempted = 1;
  print(a, r);
  return 0;
}

int usage(const std::string& why) {
  std::cerr << "jobbench: " << why << "\n"
            << "usage: jobbench e2e --workload W --seed N --seconds S [--small] "
               "[--corrupt-verdict]\n"
            << "       jobbench trace --seed N --out FILE [--small]\n"
            << "       jobbench probes --seed N [--small]\n";
  return 2;
}

}  // namespace
}  // namespace jobbench

int main(int argc, char** argv) {
  using namespace jobbench;
  if (argc < 2) return usage("missing mode");
  Args a;
  a.mode = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    const bool has_value = i + 1 < argc;
    if (flag == "--small") {
      a.small = true;
    } else if (flag == "--corrupt-verdict") {
      a.corrupt = true;
    } else if (flag == "--workload" && has_value) {
      a.workload = parse_workload(argv[++i]);
      if (!a.workload) return usage(std::string("unknown workload ") + argv[i]);
    } else if (flag == "--seed" && has_value) {
      a.seed = std::stoull(argv[++i]);
    } else if (flag == "--seconds" && has_value) {
      a.seconds = std::stod(argv[++i]);
    } else if (flag == "--out" && has_value) {
      a.out = argv[++i];
    } else {
      return usage("bad argument " + flag);
    }
  }
  if (!optimized() || std::strcmp(sanitizer(), "none") != 0) {
    std::cerr << "jobbench: refusing to report from an unoptimised or "
                 "sanitizer build: "
              << context_json(a) << "\n";
    return 3;
  }
  if (a.mode == "e2e") {
    if (!a.workload) return usage("e2e needs --workload");
    return run_e2e(a);
  }
  if (a.mode == "trace") {
    if (a.out.empty()) return usage("trace needs --out");
    return run_trace(a);
  }
  if (a.mode == "probes") return run_probes_mode(a);
  return usage("unknown mode " + a.mode);
}
