#include "resilience/journal.hpp"

#include <cstdint>
#include <fstream>

#include "util/json.hpp"

namespace nonmask {

namespace {

void append_bool(std::string& out, const char* key, bool value) {
  out += ",\"";
  out += key;
  out += value ? "\":true" : "\":false";
}

/// Locate `"key":` in `line` and parse the unsigned integer after it.
bool find_u64(const std::string& line, const char* key, std::uint64_t* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  std::size_t i = pos + needle.size();
  if (i >= line.size() || line[i] < '0' || line[i] > '9') return false;
  std::uint64_t v = 0;
  for (; i < line.size() && line[i] >= '0' && line[i] <= '9'; ++i) {
    v = v * 10 + static_cast<std::uint64_t>(line[i] - '0');
  }
  *out = v;
  return true;
}

bool find_bool(const std::string& line, const char* key, bool* out) {
  const std::string needle = std::string("\"") + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  if (line.compare(pos + needle.size(), 4, "true") == 0) {
    *out = true;
    return true;
  }
  if (line.compare(pos + needle.size(), 5, "false") == 0) {
    *out = false;
    return true;
  }
  return false;
}

/// Parse the JSON string value after `"key":"`, undoing json_quote. Only
/// the escapes our writer emits (\" \\ \n \r \t \b \f \uXXXX controls)
/// appear.
bool find_string(const std::string& line, const char* key, std::string* out) {
  const std::string needle = std::string("\"") + key + "\":\"";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return false;
  out->clear();
  for (std::size_t i = pos + needle.size(); i < line.size(); ++i) {
    const char c = line[i];
    if (c == '"') return true;
    if (c != '\\') {
      out->push_back(c);
      continue;
    }
    if (++i >= line.size()) return false;
    switch (line[i]) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case 'n': out->push_back('\n'); break;
      case 'r': out->push_back('\r'); break;
      case 't': out->push_back('\t'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (i + 4 >= line.size()) return false;
        unsigned code = 0;
        for (int d = 0; d < 4; ++d) {
          const char h = line[i + 1 + static_cast<std::size_t>(d)];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
          else return false;
        }
        out->push_back(static_cast<char>(code));
        i += 4;
        break;
      }
      default: return false;
    }
  }
  return false;  // unterminated string: torn line
}

}  // namespace

std::string to_jsonl(const std::string& design_name,
                     const TrialRecord& record) {
  std::string out = "{\"design\":";
  out += util::json_quote(design_name);
  out += ",\"trial\":" + std::to_string(record.trial);
  out += ",\"daemon_seed\":" + std::to_string(record.seeds.daemon);
  out += ",\"start_seed\":" + std::to_string(record.seeds.start);
  append_bool(out, "converged", record.outcome.converged);
  append_bool(out, "deadlocked", record.outcome.deadlocked);
  append_bool(out, "exhausted", record.outcome.exhausted);
  append_bool(out, "timed_out", record.outcome.timed_out);
  append_bool(out, "failed", record.outcome.failed);
  out += ",\"attempts\":" + std::to_string(record.attempts);
  out += ",\"steps\":" + std::to_string(record.outcome.steps);
  out += ",\"rounds\":" + std::to_string(record.outcome.rounds);
  out += ",\"moves\":" + std::to_string(record.outcome.moves);
  if (!record.error.empty()) {
    out += ",\"error\":";
    out += util::json_quote(record.error);
  }
  out += "}";
  return out;
}

std::optional<TrialRecord> parse_trial_jsonl(const std::string& line,
                                             std::string* design_name) {
  // A complete line is one JSON object; a torn tail from a killed process
  // fails the brace test or one of the required-field lookups below.
  if (line.empty() || line.front() != '{' || line.back() != '}') {
    return std::nullopt;
  }
  TrialRecord record;
  std::string design;
  std::uint64_t trial = 0, attempts = 0;
  if (!find_string(line, "design", &design)) return std::nullopt;
  if (!find_u64(line, "trial", &trial)) return std::nullopt;
  if (!find_u64(line, "daemon_seed", &record.seeds.daemon)) return std::nullopt;
  if (!find_u64(line, "start_seed", &record.seeds.start)) return std::nullopt;
  if (!find_bool(line, "converged", &record.outcome.converged)) return std::nullopt;
  if (!find_bool(line, "deadlocked", &record.outcome.deadlocked)) return std::nullopt;
  if (!find_bool(line, "exhausted", &record.outcome.exhausted)) return std::nullopt;
  if (!find_bool(line, "timed_out", &record.outcome.timed_out)) return std::nullopt;
  if (!find_bool(line, "failed", &record.outcome.failed)) return std::nullopt;
  if (!find_u64(line, "attempts", &attempts)) return std::nullopt;
  if (!find_u64(line, "steps", &record.outcome.steps)) return std::nullopt;
  if (!find_u64(line, "rounds", &record.outcome.rounds)) return std::nullopt;
  if (!find_u64(line, "moves", &record.outcome.moves)) return std::nullopt;
  find_string(line, "error", &record.error);  // optional
  record.trial = static_cast<std::size_t>(trial);
  record.attempts = static_cast<std::size_t>(attempts);
  if (design_name != nullptr) *design_name = std::move(design);
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
