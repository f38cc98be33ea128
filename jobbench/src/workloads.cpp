#include "workloads.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "checker/restricted.hpp"
#include "checker/state_space.hpp"
#include "protocols/token_ring.hpp"
#include "spec/spec.hpp"
#include "store/facade.hpp"

namespace jobbench {

using nonmask::util::JsonValue;

const char* name(Workload w) {
  switch (w) {
    case Workload::kRingCheck: return "ring-check";
    case Workload::kRingFairNative: return "ring-fair-native";
    case Workload::kRingCampaign: return "ring-campaign";
    case Workload::kRingContainment: return "ring-containment";
  }
  return "?";
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> all = {
      Workload::kRingCheck, Workload::kRingFairNative,
      Workload::kRingCampaign, Workload::kRingContainment};
  return all;
}

std::optional<Workload> parse_workload(std::string_view text) {
  for (Workload w : all_workloads()) {
    if (text == name(w)) return w;
  }
  return std::nullopt;
}

Sizes sizes(bool small) {
  Sizes z;
  if (small) {
    z.ring_n = 4;
    z.ring_k = 5;
    z.byzantine = 1;
    z.campaign_n = 8;
    z.campaign_k = 9;
    z.campaign_faults = 2;
    z.campaign_trials = 200;
  }
  return z;
}

Expected expected(bool small) {
  Expected e;
  if (small) {
    // The 5^4 ring; the dense serial backend (spec_tool run, threads 1)
    // reports the same counts for the same spec.
    e.states = 625;
    e.states_in_S = 65;
    e.region_states = 560;
    e.transitions = 1560;
    e.max_steps_to_S = 13;
    e.closure_T_transitions = 1625;
    e.radius = 2;
    e.horizon = 2;
    e.levels = 19;
  } else {
    e.states = 4'782'969;
    e.states_in_S = 441;
    e.region_states = 4'782'528;
    e.transitions = 26'040'168;
    e.max_steps_to_S = 55;
    e.closure_T_transitions = 26'040'609;
    e.radius = 3;
    e.horizon = 3;
    e.levels = 132;
  }
  return e;
}

namespace {

// A parameterized nonmask-spec/1 Dijkstra K-state ring: per-process x,
// advance@0, adopt@{j}, and "exactly one privilege" as a sum comprehension.
std::string ring_spec(const std::string& spec_name, int n, int k,
                      const std::string& extra) {
  std::ostringstream o;
  o << "{\n"
    << "  \"schema\": \"nonmask-spec/1\",\n"
    << "  \"name\": \"" << spec_name << "\",\n"
    << "  \"params\": {\"K\": " << k << "},\n"
    << "  \"topology\": {\"kind\": \"ring\", \"n\": " << n << "},\n"
    << "  \"variables\": [\n"
    << "    {\"name\": \"x\", \"per\": \"process\", \"min\": \"0\", "
       "\"max\": \"K - 1\"}\n"
    << "  ],\n"
    << "  \"constraints\": [\n"
    << "    {\"name\": \"agree.{j}\", \"per\": \"process\", \"where\": "
       "\"j > 0\", \"expr\": \"x[j] == x[j - 1]\"}\n"
    << "  ],\n"
    << "  \"actions\": [\n"
    << "    {\"name\": \"advance@0\", \"kind\": \"closure\", \"guard\": "
       "\"x[0] == x[n - 1]\", \"assign\": {\"x[0]\": \"(x[0] + 1) % K\"}, "
       "\"process\": \"0\"},\n"
    << "    {\"name\": \"adopt@{j}\", \"kind\": \"closure\", \"per\": "
       "\"process\", \"where\": \"j > 0\", \"guard\": \"x[j] != x[j - 1]\", "
       "\"assign\": {\"x[j]\": \"x[j - 1]\"}}\n"
    << "  ],\n"
    << "  \"s_override\": \"(x[0] == x[n - 1] ? 1 : 0) + sum(i : range(1, "
       "n), x[i] != x[i - 1] ? 1 : 0) == 1\",\n"
    << extra << "\n}\n";
  return o.str();
}

}  // namespace

Inputs make_inputs(Workload w, bool small, unsigned threads,
                   std::uint64_t seed) {
  Inputs in;
  in.workload = w;
  in.small = small;
  in.threads = threads;
  in.seed = seed;
  const Sizes z = sizes(small);
  const std::string tag = std::string("jobbench-") + name(w) + "-s" +
                          std::to_string(seed);
  const std::string store_job = "\"threads\": " + std::to_string(threads) +
                                ", \"backend\": \"store\"";
  switch (w) {
    case Workload::kRingCheck:
      in.spec_text = ring_spec(tag, z.ring_n, z.ring_k,
                               "  \"job\": {\"type\": \"check\", " +
                                   store_job + "}");
      break;
    case Workload::kRingFairNative:
      break;
    case Workload::kRingContainment:
      in.spec_text = ring_spec(
          tag, z.ring_n, z.ring_k,
          "  \"job\": {\"type\": \"containment\", \"byzantine\": [" +
              std::to_string(z.byzantine) + "], \"seed\": " +
              std::to_string(seed) + ", " + store_job + "}");
      break;
    case Workload::kRingCampaign:
      // The seed drives the trial stream and the fault placement; keep
      // both well inside int64 for the JSON parser.
      in.spec_text = ring_spec(
          tag, z.campaign_n, z.campaign_k,
          "  \"faults\": [{\"schedule\": \"at\", \"step\": 0, \"model\": "
          "\"corrupt-k-variables\", \"k\": " +
              std::to_string(z.campaign_faults) + "}],\n" +
              "  \"fault_seed\": " + std::to_string(seed % 1000003 + 1) +
              ",\n  \"job\": {\"type\": \"campaign\", \"trials\": " +
              std::to_string(z.campaign_trials) + ", \"seed\": " +
              std::to_string(seed) + ", " + store_job + "}");
      break;
  }
  return in;
}

nonmask::spec::CompiledSpec prepare(const Inputs& in) {
  if (in.workload != Workload::kRingFairNative) {
    return nonmask::spec::compile_spec_text(in.spec_text);
  }
  const Sizes z = sizes(in.small);
  nonmask::spec::CompiledSpec spec;
  spec.design = nonmask::make_dijkstra_ring(z.ring_n, z.ring_k).design;
  spec.spec_name = spec.design.name;
  spec.has_job = true;
  spec.job.type = "check";
  spec.job.weakly_fair = true;
  spec.job.backend = "store";
  spec.job.threads = in.threads;
  return spec;
}

namespace {

const JsonValue& at(const JsonValue& doc, std::string_view path) {
  const JsonValue* v = &doc;
  while (!path.empty()) {
    const std::size_t dot = path.find('.');
    const std::string_view key = path.substr(0, dot);
    v = v->is_object() ? v->find(key) : nullptr;
    if (v == nullptr) {
      throw std::runtime_error("report lacks " + std::string(key));
    }
    path = dot == std::string_view::npos ? std::string_view{}
                                         : path.substr(dot + 1);
  }
  return *v;
}

JsonValue& at_mut(JsonValue& doc, std::string_view path) {
  return const_cast<JsonValue&>(at(doc, path));
}

std::uint64_t count(const JsonValue& doc, std::string_view path) {
  const JsonValue& v = at(doc, path);
  if (!v.is_number()) throw std::runtime_error(std::string(path) + " not a number");
  return static_cast<std::uint64_t>(v.as_double());
}

bool flag(const JsonValue& doc, std::string_view path) {
  return at(doc, path).bool_value;
}

const std::string& text(const JsonValue& doc, std::string_view path) {
  return at(doc, path).string_value;
}

// Records the first mismatch.
struct Checker {
  std::string problem;
  void expect(bool ok, const std::string& what) {
    if (!ok && problem.empty()) problem = what;
  }
  void equal(std::uint64_t got, std::uint64_t want, const std::string& what) {
    expect(got == want, what + " = " + std::to_string(got) + ", expected " +
                            std::to_string(want));
  }
};

void corrupt_verdict(Workload w, JsonValue& doc) {
  switch (w) {
    case Workload::kRingCheck:
    case Workload::kRingFairNative:
      at_mut(doc, "convergence.verdict").string_value = "violated";
      break;
    case Workload::kRingContainment:
      at_mut(doc, "containment.contained").bool_value = true;
      break;
    case Workload::kRingCampaign: {
      JsonValue& f = at_mut(doc, "campaign.converged_fraction");
      f.type = JsonValue::Type::kDouble;
      f.double_value = 0.5;
      break;
    }
  }
}

}  // namespace

Outcome check_report(const Inputs& in, const std::string& report_json,
                     std::uint64_t campaign_steps, bool corrupt) {
  Outcome out;
  const Sizes z = sizes(in.small);
  const Expected e = expected(in.small);
  if (in.workload == Workload::kRingCampaign) out.attempted = z.campaign_trials;
  Checker c;
  try {
    JsonValue doc = nonmask::util::parse_json(report_json);
    if (corrupt) corrupt_verdict(in.workload, doc);
    switch (in.workload) {
      case Workload::kRingCheck:
      case Workload::kRingFairNative: {
        c.expect(flag(doc, "closure_S.closed"), "S not closed");
        c.expect(flag(doc, "closure_T.closed"), "T not closed");
        c.equal(count(doc, "closure_T.states_checked"), e.states,
                "closure_T.states_checked");
        c.equal(count(doc, "closure_T.transitions_checked"),
                e.closure_T_transitions, "closure_T.transitions_checked");
        c.expect(text(doc, "convergence.verdict") == "converges",
                 "convergence verdict " + text(doc, "convergence.verdict"));
        c.equal(count(doc, "convergence.states_in_T"), e.states,
                "convergence.states_in_T");
        if (in.workload == Workload::kRingCheck) {
          c.equal(count(doc, "convergence.states_in_S"), e.states_in_S,
                  "convergence.states_in_S");
          c.equal(count(doc, "convergence.region_states"), e.region_states,
                  "convergence.region_states");
          c.equal(count(doc, "convergence.transitions"), e.transitions,
                  "convergence.transitions");
          c.equal(count(doc, "convergence.max_steps_to_S"), e.max_steps_to_S,
                  "convergence.max_steps_to_S");
        }
        out.states = count(doc, "convergence.states_in_T");
        out.transitions = count(doc, "convergence.transitions");
        out.region_states = count(doc, "convergence.region_states");
        break;
      }
      case Workload::kRingContainment:
        c.expect(!flag(doc, "containment.contained"),
                 "containment reported contained");
        c.equal(count(doc, "containment.radius"),
                static_cast<std::uint64_t>(e.radius), "containment.radius");
        c.equal(count(doc, "containment.horizon"),
                static_cast<std::uint64_t>(e.horizon), "containment.horizon");
        c.equal(count(doc, "containment.reachable_states"), e.states,
                "containment.reachable_states");
        c.equal(count(doc, "containment.levels"), e.levels,
                "containment.levels");
        out.states = count(doc, "containment.reachable_states");
        out.levels = count(doc, "containment.levels");
        break;
      case Workload::kRingCampaign: {
        c.equal(count(doc, "campaign.steps.count"), z.campaign_trials,
                "converged trials");
        c.expect(at(doc, "campaign.converged_fraction").as_double() == 1.0,
                 "not every trial converged");
        out.campaign_steps = count(doc, "campaign.steps.sum");
        if (campaign_steps != 0) {
          c.equal(out.campaign_steps, campaign_steps, "campaign steps aggregate");
        }
        out.states = out.campaign_steps;
        out.transitions = count(doc, "campaign.moves.sum");
        break;
      }
    }
  } catch (const std::exception& ex) {
    c.expect(false, std::string("unreadable report: ") + ex.what());
  }
  out.problem = c.problem;
  if (!out.problem.empty()) out.failed = out.attempted;
  return out;
}

std::uint64_t composed_transitions(const Inputs& in) {
  const nonmask::spec::CompiledSpec spec = prepare(in);
  const nonmask::Program composed =
      nonmask::compose_byzantine(spec.design.program, spec.job.byzantine);
  const nonmask::StateSpace space(composed);
  const std::vector<std::size_t> actions = nonmask::non_fault_actions(composed);
  const unsigned workers = std::max(1u, in.threads);
  std::vector<std::uint64_t> totals(workers, 0);
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < workers; ++t) {
    pool.emplace_back([&, t] {
      nonmask::store::StoreBackedSuccessors succ(space, actions);
      std::vector<std::uint64_t> next;
      const std::uint64_t lo = space.size() * t / workers;
      const std::uint64_t hi = space.size() * (t + 1) / workers;
      for (std::uint64_t code = lo; code < hi; ++code) {
        succ.successors(code, next);
        totals[t] += next.size();
      }
    });
  }
  for (auto& th : pool) th.join();
  std::uint64_t total = 0;
  for (std::uint64_t n : totals) total += n;
  return total;
}

}  // namespace jobbench
