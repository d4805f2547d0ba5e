// The JSON spec document model and its schema validator.
//
// A spec is one JSON object describing a design the way Section 3 of the
// paper states it — variables with finite domains, guarded-command actions
// split into closure/convergence/environment/fault kinds, the invariant's
// constraint decomposition, the fault-span T, an optional explicit S — plus
// a parameterized topology over the graphlib generators, a composable
// fault schedule, Byzantine placements, and the job request to run
// (check / falsify / campaign / containment / synthesize / certify).
//
// parse_spec validates the document field by field and reports
// line/field-precise errors: `$.actions[2].guard: expected string
// (line 14)`. It performs *structural* validation only; name resolution
// and expression typing happen in compile_spec (src/spec/compile.hpp),
// which still points back at the offending field.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/variable.hpp"

namespace nonmask::spec {

class SpecError : public std::runtime_error {
 public:
  SpecError(const std::string& path, const std::string& message, int line)
      : std::runtime_error(line > 0 ? path + ": " + message + " (line " +
                                          std::to_string(line) + ")"
                                    : path + ": " + message),
        path_(path),
        line_(line) {}
  const std::string& path() const noexcept { return path_; }
  int line() const noexcept { return line_; }

 private:
  std::string path_;
  int line_;
};

/// Current schema identifier; specs must declare it verbatim.
inline constexpr const char* kSchemaVersion = "nonmask-spec/1";

struct TopologyDecl {
  std::string kind;  // ring | chain | star | balanced | path | cycle |
                     // complete | grid | random-tree | random-connected
  long long n = 0;
  long long arity = 2;
  long long rows = 0, cols = 0;
  long long extra = 0;
  std::uint64_t seed = 1;
  int line = 0;
};

struct VariableDecl {
  std::string name;
  bool per_process = false;
  std::string min, max;  // index expressions (binder `j` for per-process)
  long long process = VariableSpec::kNoProcess;  // explicit owner (globals)
  int line = 0;
};

struct ConstraintDecl {
  std::string name;  // may contain "{j}" for per-process expansion
  bool per_process = false;
  std::string where;  // index expression; empty = always
  std::string expr;   // state expression
  std::vector<std::string> support;  // optional explicit support refs
  std::string group;                 // interleaved expansion group
  int line = 0;
};

struct ActionDecl {
  std::string name;  // may contain "{j}"
  std::string kind;  // closure | convergence | environment | fault
  bool per_process = false;
  std::string where;
  std::string guard;  // empty = true
  std::vector<std::pair<std::string, std::string>> assigns;  // lhs, rhs
  std::string constraint;  // index expr -> constraint id (convergence)
  std::string process;     // index expr; default: j (per) / -1
  std::vector<std::string> reads;  // optional explicit read-set refs
  std::string group;
  int line = 0;
};

struct FaultDecl {
  std::string schedule;  // at | burst | sustained | persistent
  std::size_t step = 0, start = 0, count = 1, period = 1;
  std::string model;  // corrupt-k-variables | corrupt-k-processes |
                      // corrupt-fraction | targeted | byzantine
  std::size_t k = 1;
  double fraction = 0.1;
  std::vector<std::string> targets;  // variable refs (targeted)
  std::vector<Value> values;         // values    (targeted)
  std::vector<int> processes;        // byzantine placement
  std::string policy = "random";     // byzantine: random | extremes
  int line = 0;
};

struct JobDecl {
  std::string type = "check";  // check | falsify | campaign | containment |
                               // synthesize | certify
  unsigned threads = 1;
  std::uint64_t state_budget = 0;  // 0 = library default
  bool weakly_fair = false;

  // campaign
  std::size_t trials = 100;
  std::uint64_t seed = 1;
  std::size_t max_steps = 1'000'000;
  std::string daemon = "random";  // random | round-robin | first-enabled
  long long deadline_ms = 0;
  std::size_t retries = 0;
  long long backoff_ms = 100;

  // falsify
  std::uint64_t walks = 200;
  std::uint64_t walk_length = 10'000;

  // containment
  std::vector<int> byzantine;

  // synthesize
  std::uint64_t max_candidates = 50'000;

  int line = 0;
};

struct SpecDoc {
  std::string text;  // the raw document (provenance hashing)
  std::string schema;
  std::string name;
  std::vector<std::pair<std::string, long long>> params;  // document order
  bool has_topology = false;
  TopologyDecl topology;
  bool interleave_processes = false;
  std::vector<VariableDecl> variables;
  std::vector<ConstraintDecl> constraints;
  std::vector<ActionDecl> actions;
  std::string fault_span;  // state expression; empty = true
  std::string s_override;  // state expression; empty = constraints /\ T
  bool stabilizing = true;
  std::vector<FaultDecl> faults;
  std::uint64_t fault_seed = 1;
  bool has_job = false;
  JobDecl job;
};

/// Parse + structurally validate one spec document. Throws SpecError (bad
/// schema/fields) or util::JsonParseError (malformed JSON).
SpecDoc parse_spec(const std::string& text);

/// FNV-1a 64-bit content hash (spec provenance blocks).
std::uint64_t fnv1a64(std::string_view text);

/// The hash as 16 lowercase hex digits.
std::string fnv1a64_hex(std::string_view text);

}  // namespace nonmask::spec
