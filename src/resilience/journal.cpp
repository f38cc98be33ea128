#include "resilience/journal.hpp"

#include <cstdint>
#include <fstream>

#include "util/json.hpp"

namespace nonmask {

std::string to_jsonl(const std::string& design_name,
                     const TrialRecord& record) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("design");
  w.value(design_name);
  w.key("trial");
  w.value(static_cast<std::uint64_t>(record.trial));
  w.key("daemon_seed");
  w.value(record.seeds.daemon);
  w.key("start_seed");
  w.value(record.seeds.start);
  w.key("converged");
  w.value(record.outcome.converged);
  w.key("deadlocked");
  w.value(record.outcome.deadlocked);
  w.key("exhausted");
  w.value(record.outcome.exhausted);
  w.key("timed_out");
  w.value(record.outcome.timed_out);
  w.key("failed");
  w.value(record.outcome.failed);
  w.key("attempts");
  w.value(static_cast<std::uint64_t>(record.attempts));
  w.key("steps");
  w.value(record.outcome.steps);
  w.key("rounds");
  w.value(record.outcome.rounds);
  w.key("moves");
  w.value(record.outcome.moves);
  if (!record.error.empty()) {
    w.key("error");
    w.value(record.error);
  }
  w.end_object();
  return out;
}

std::optional<TrialRecord> parse_trial_jsonl(const std::string& line,
                                             std::string* design_name) {
  // A complete line is one JSON object; a torn tail from a killed process
  // is not valid JSON, and a missing or mistyped field fails its lookup.
  util::JsonValue doc;
  try {
    doc = util::parse_json(line);
  } catch (const util::JsonParseError&) {
    return std::nullopt;
  }
  if (!doc.is_object()) return std::nullopt;
  const auto u64 = [&doc](const char* key, std::uint64_t* out) {
    const util::JsonValue* v = doc.find(key);
    return v != nullptr && v->as_u64(out);
  };
  const auto boolean = [&doc](const char* key, bool* out) {
    const util::JsonValue* v = doc.find(key);
    if (v == nullptr || !v->is_bool()) return false;
    *out = v->bool_value;
    return true;
  };
  const util::JsonValue* design = doc.find("design");
  const util::JsonValue* error = doc.find("error");
  TrialRecord record;
  std::uint64_t trial = 0, attempts = 0;
  if (design == nullptr || !design->is_string() ||
      (error != nullptr && !error->is_string()) || !u64("trial", &trial) ||
      !u64("daemon_seed", &record.seeds.daemon) ||
      !u64("start_seed", &record.seeds.start) ||
      !boolean("converged", &record.outcome.converged) ||
      !boolean("deadlocked", &record.outcome.deadlocked) ||
      !boolean("exhausted", &record.outcome.exhausted) ||
      !boolean("timed_out", &record.outcome.timed_out) ||
      !boolean("failed", &record.outcome.failed) ||
      !u64("attempts", &attempts) || !u64("steps", &record.outcome.steps) ||
      !u64("rounds", &record.outcome.rounds) ||
      !u64("moves", &record.outcome.moves)) {
    return std::nullopt;
  }
  if (error != nullptr) record.error = error->string_value;
  record.trial = static_cast<std::size_t>(trial);
  record.attempts = static_cast<std::size_t>(attempts);
  if (design_name != nullptr) *design_name = design->string_value;
  return record;
}

JournalPrefix load_journal_prefix(const std::string& path,
                                  const std::string& design_name,
                                  const std::vector<TrialSeeds>&
                                      expected_seeds) {
  JournalPrefix prefix;
  std::ifstream in(path);
  if (!in) return prefix;
  std::string line;
  while (prefix.records.size() < expected_seeds.size() &&
         std::getline(in, line)) {
    std::string design;
    const auto record = parse_trial_jsonl(line, &design);
    if (!record) break;
    const std::size_t i = prefix.records.size();
    if (design != design_name || record->trial != i ||
        record->seeds.daemon != expected_seeds[i].daemon ||
        record->seeds.start != expected_seeds[i].start) {
      break;
    }
    prefix.records.push_back(*record);
    prefix.lines.push_back(line);
  }
  return prefix;
}

}  // namespace nonmask
