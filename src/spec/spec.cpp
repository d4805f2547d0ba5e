#include "spec/spec.hpp"

#include <limits>

#include "util/json.hpp"

namespace nonmask::spec {

namespace {

using util::JsonValue;

[[noreturn]] void fail(const std::string& path, const std::string& message,
                       const JsonValue& at) {
  throw SpecError(path, message, at.line);
}

const JsonValue& expect_object(const JsonValue& v, const std::string& path) {
  if (!v.is_object()) {
    fail(path, std::string("expected object, got ") + v.type_name(), v);
  }
  return v;
}

const JsonValue& expect_array(const JsonValue& v, const std::string& path) {
  if (!v.is_array()) {
    fail(path, std::string("expected array, got ") + v.type_name(), v);
  }
  return v;
}

std::string expect_string(const JsonValue& v, const std::string& path) {
  if (!v.is_string()) {
    fail(path, std::string("expected string, got ") + v.type_name(), v);
  }
  return v.string_value;
}

long long expect_int(const JsonValue& v, const std::string& path) {
  if (!v.is_int()) {
    fail(path, std::string("expected integer, got ") + v.type_name(), v);
  }
  return v.int_value;
}

bool expect_bool(const JsonValue& v, const std::string& path) {
  if (!v.is_bool()) {
    fail(path, std::string("expected bool, got ") + v.type_name(), v);
  }
  return v.bool_value;
}

/// A string expression, or an integer literal (written without quotes for
/// convenience) rendered to its decimal form.
std::string expect_expr(const JsonValue& v, const std::string& path) {
  if (v.is_string()) return v.string_value;
  if (v.is_int()) return std::to_string(v.int_value);
  fail(path, std::string("expected expression string or integer, got ") +
                 v.type_name(),
       v);
}

void reject_unknown_keys(const JsonValue& obj, const std::string& path,
                         std::initializer_list<const char*> allowed) {
  for (const auto& [key, value] : obj.object) {
    bool known = false;
    for (const char* a : allowed) {
      if (key == a) {
        known = true;
        break;
      }
    }
    if (!known) fail(path + "." + key, "unknown field", value);
  }
}

TopologyDecl parse_topology(const JsonValue& v, const std::string& path) {
  expect_object(v, path);
  reject_unknown_keys(v, path,
                      {"kind", "n", "arity", "rows", "cols", "extra", "seed"});
  TopologyDecl t;
  t.line = v.line;
  const JsonValue* kind = v.find("kind");
  if (kind == nullptr) fail(path, "missing required field \"kind\"", v);
  t.kind = expect_string(*kind, path + ".kind");
  static const char* kKinds[] = {"ring",     "chain",       "star",
                                 "balanced", "path",        "cycle",
                                 "complete", "grid",        "random-tree",
                                 "random-connected"};
  bool known = false;
  for (const char* k : kKinds) known = known || t.kind == k;
  if (!known) fail(path + ".kind", "unknown topology kind '" + t.kind + "'",
                   *kind);
  if (const JsonValue* n = v.find("n")) t.n = expect_int(*n, path + ".n");
  if (const JsonValue* a = v.find("arity")) {
    t.arity = expect_int(*a, path + ".arity");
  }
  if (const JsonValue* r = v.find("rows")) {
    t.rows = expect_int(*r, path + ".rows");
  }
  if (const JsonValue* c = v.find("cols")) {
    t.cols = expect_int(*c, path + ".cols");
  }
  if (const JsonValue* e = v.find("extra")) {
    t.extra = expect_int(*e, path + ".extra");
  }
  if (const JsonValue* s = v.find("seed")) {
    t.seed = static_cast<std::uint64_t>(expect_int(*s, path + ".seed"));
  }
  if (t.kind == "grid") {
    if (t.rows <= 0 || t.cols <= 0) {
      fail(path, "grid topology requires positive \"rows\" and \"cols\"", v);
    }
  } else if (t.n <= 0) {
    fail(path, "topology requires positive \"n\"", v);
  }
  return t;
}

VariableDecl parse_variable(const JsonValue& v, const std::string& path) {
  expect_object(v, path);
  reject_unknown_keys(v, path, {"name", "per", "min", "max", "process"});
  VariableDecl d;
  d.line = v.line;
  const JsonValue* name = v.find("name");
  if (name == nullptr) fail(path, "missing required field \"name\"", v);
  d.name = expect_string(*name, path + ".name");
  if (d.name.empty()) fail(path + ".name", "empty variable name", *name);
  if (const JsonValue* per = v.find("per")) {
    const std::string p = expect_string(*per, path + ".per");
    if (p != "process") {
      fail(path + ".per", "expected \"process\"", *per);
    }
    d.per_process = true;
  }
  const JsonValue* min = v.find("min");
  const JsonValue* max = v.find("max");
  if (min == nullptr || max == nullptr) {
    fail(path, "variable requires \"min\" and \"max\" domain bounds", v);
  }
  d.min = expect_expr(*min, path + ".min");
  d.max = expect_expr(*max, path + ".max");
  if (const JsonValue* process = v.find("process")) {
    if (d.per_process) {
      fail(path + ".process",
           "per-process variables may not pin an explicit process", *process);
    }
    d.process = expect_int(*process, path + ".process");
  }
  return d;
}

ConstraintDecl parse_constraint(const JsonValue& v, const std::string& path) {
  expect_object(v, path);
  reject_unknown_keys(v, path,
                      {"name", "per", "where", "expr", "support", "group"});
  ConstraintDecl d;
  d.line = v.line;
  const JsonValue* name = v.find("name");
  if (name == nullptr) fail(path, "missing required field \"name\"", v);
  d.name = expect_string(*name, path + ".name");
  if (const JsonValue* per = v.find("per")) {
    if (expect_string(*per, path + ".per") != "process") {
      fail(path + ".per", "expected \"process\"", *per);
    }
    d.per_process = true;
  }
  if (const JsonValue* where = v.find("where")) {
    d.where = expect_expr(*where, path + ".where");
  }
  const JsonValue* expr = v.find("expr");
  if (expr == nullptr) fail(path, "missing required field \"expr\"", v);
  d.expr = expect_string(*expr, path + ".expr");
  if (const JsonValue* support = v.find("support")) {
    expect_array(*support, path + ".support");
    for (std::size_t i = 0; i < support->array.size(); ++i) {
      d.support.push_back(expect_string(
          support->array[i], path + ".support[" + std::to_string(i) + "]"));
    }
  }
  if (const JsonValue* group = v.find("group")) {
    d.group = expect_string(*group, path + ".group");
  }
  return d;
}

ActionDecl parse_action(const JsonValue& v, const std::string& path) {
  expect_object(v, path);
  reject_unknown_keys(v, path,
                      {"name", "kind", "per", "where", "guard", "assign",
                       "constraint", "process", "reads", "group"});
  ActionDecl d;
  d.line = v.line;
  const JsonValue* name = v.find("name");
  if (name == nullptr) fail(path, "missing required field \"name\"", v);
  d.name = expect_string(*name, path + ".name");
  const JsonValue* kind = v.find("kind");
  if (kind == nullptr) fail(path, "missing required field \"kind\"", v);
  d.kind = expect_string(*kind, path + ".kind");
  if (d.kind != "closure" && d.kind != "convergence" &&
      d.kind != "environment" && d.kind != "fault") {
    fail(path + ".kind",
         "expected closure | convergence | environment | fault", *kind);
  }
  if (const JsonValue* per = v.find("per")) {
    if (expect_string(*per, path + ".per") != "process") {
      fail(path + ".per", "expected \"process\"", *per);
    }
    d.per_process = true;
  }
  if (const JsonValue* where = v.find("where")) {
    d.where = expect_expr(*where, path + ".where");
  }
  if (const JsonValue* guard = v.find("guard")) {
    d.guard = expect_string(*guard, path + ".guard");
  }
  const JsonValue* assign = v.find("assign");
  if (assign == nullptr) fail(path, "missing required field \"assign\"", v);
  expect_object(*assign, path + ".assign");
  if (assign->object.empty()) {
    fail(path + ".assign", "assignment must write at least one variable",
         *assign);
  }
  for (const auto& [lhs, rhs] : assign->object) {
    d.assigns.emplace_back(lhs,
                           expect_expr(rhs, path + ".assign." + lhs));
  }
  if (const JsonValue* constraint = v.find("constraint")) {
    d.constraint = expect_expr(*constraint, path + ".constraint");
  }
  if (const JsonValue* process = v.find("process")) {
    d.process = expect_expr(*process, path + ".process");
  }
  if (const JsonValue* reads = v.find("reads")) {
    expect_array(*reads, path + ".reads");
    for (std::size_t i = 0; i < reads->array.size(); ++i) {
      d.reads.push_back(expect_string(
          reads->array[i], path + ".reads[" + std::to_string(i) + "]"));
    }
  }
  if (const JsonValue* group = v.find("group")) {
    d.group = expect_string(*group, path + ".group");
  }
  return d;
}

FaultDecl parse_fault(const JsonValue& v, const std::string& path) {
  expect_object(v, path);
  reject_unknown_keys(v, path,
                      {"schedule", "step", "start", "count", "period",
                       "model", "k", "fraction", "targets", "values",
                       "processes", "policy"});
  FaultDecl d;
  d.line = v.line;
  const JsonValue* schedule = v.find("schedule");
  if (schedule == nullptr) {
    fail(path, "missing required field \"schedule\"", v);
  }
  d.schedule = expect_string(*schedule, path + ".schedule");
  if (d.schedule != "at" && d.schedule != "burst" &&
      d.schedule != "sustained" && d.schedule != "persistent") {
    fail(path + ".schedule", "expected at | burst | sustained | persistent",
         *schedule);
  }
  const JsonValue* model = v.find("model");
  if (model == nullptr) fail(path, "missing required field \"model\"", v);
  d.model = expect_string(*model, path + ".model");
  if (d.model != "corrupt-k-variables" && d.model != "corrupt-k-processes" &&
      d.model != "corrupt-fraction" && d.model != "targeted" &&
      d.model != "byzantine") {
    fail(path + ".model",
         "expected corrupt-k-variables | corrupt-k-processes | "
         "corrupt-fraction | targeted | byzantine",
         *model);
  }
  auto take_size = [&](const char* key, std::size_t* out) {
    if (const JsonValue* j = v.find(key)) {
      const long long parsed = expect_int(*j, path + "." + key);
      if (parsed < 0) fail(path + "." + key, "must be >= 0", *j);
      *out = static_cast<std::size_t>(parsed);
    }
  };
  take_size("step", &d.step);
  take_size("start", &d.start);
  take_size("count", &d.count);
  take_size("period", &d.period);
  take_size("k", &d.k);
  if (const JsonValue* fraction = v.find("fraction")) {
    if (!fraction->is_number()) {
      fail(path + ".fraction", "expected number", *fraction);
    }
    d.fraction = fraction->as_double();
  }
  if (const JsonValue* targets = v.find("targets")) {
    expect_array(*targets, path + ".targets");
    for (std::size_t i = 0; i < targets->array.size(); ++i) {
      d.targets.push_back(expect_string(
          targets->array[i], path + ".targets[" + std::to_string(i) + "]"));
    }
  }
  if (const JsonValue* values = v.find("values")) {
    expect_array(*values, path + ".values");
    for (std::size_t i = 0; i < values->array.size(); ++i) {
      d.values.push_back(static_cast<Value>(expect_int(
          values->array[i], path + ".values[" + std::to_string(i) + "]")));
    }
  }
  if (const JsonValue* processes = v.find("processes")) {
    expect_array(*processes, path + ".processes");
    for (std::size_t i = 0; i < processes->array.size(); ++i) {
      d.processes.push_back(static_cast<int>(
          expect_int(processes->array[i],
                     path + ".processes[" + std::to_string(i) + "]")));
    }
  }
  if (const JsonValue* policy = v.find("policy")) {
    d.policy = expect_string(*policy, path + ".policy");
    if (d.policy != "random" && d.policy != "extremes") {
      fail(path + ".policy", "expected random | extremes", *policy);
    }
  }
  if (d.model == "targeted" && d.targets.size() != d.values.size()) {
    fail(path, "targeted model requires \"targets\" and \"values\" of equal "
               "length",
         v);
  }
  if (d.model == "byzantine" && d.processes.empty()) {
    fail(path, "byzantine model requires a nonempty \"processes\" placement",
         v);
  }
  return d;
}

JobDecl parse_job(const JsonValue& v, const std::string& path) {
  expect_object(v, path);
  reject_unknown_keys(
      v, path,
      {"type", "threads", "state_budget", "weakly_fair", "trials", "seed",
       "max_steps", "daemon", "deadline_ms", "retries", "backoff_ms", "walks",
       "walk_length", "byzantine", "max_candidates"});
  JobDecl d;
  d.line = v.line;
  if (const JsonValue* type = v.find("type")) {
    d.type = expect_string(*type, path + ".type");
    if (d.type != "check" && d.type != "falsify" && d.type != "campaign" &&
        d.type != "containment" && d.type != "synthesize" &&
        d.type != "certify") {
      fail(path + ".type",
           "expected check | falsify | campaign | containment | synthesize "
           "| certify",
           *type);
    }
  }
  auto take_u64 = [&](const char* key, std::uint64_t* out) {
    if (const JsonValue* j = v.find(key)) {
      const long long parsed = expect_int(*j, path + "." + key);
      if (parsed < 0) fail(path + "." + key, "must be >= 0", *j);
      *out = static_cast<std::uint64_t>(parsed);
    }
  };
  auto take_size = [&](const char* key, std::size_t* out) {
    std::uint64_t u = *out;
    take_u64(key, &u);
    *out = static_cast<std::size_t>(u);
  };
  if (const JsonValue* threads = v.find("threads")) {
    const long long parsed = expect_int(*threads, path + ".threads");
    if (parsed < 0) fail(path + ".threads", "must be >= 0", *threads);
    d.threads = static_cast<unsigned>(parsed);
  }
  take_u64("state_budget", &d.state_budget);
  if (const JsonValue* weakly_fair = v.find("weakly_fair")) {
    d.weakly_fair = expect_bool(*weakly_fair, path + ".weakly_fair");
  }
  take_size("trials", &d.trials);
  take_u64("seed", &d.seed);
  take_size("max_steps", &d.max_steps);
  if (const JsonValue* daemon = v.find("daemon")) {
    d.daemon = expect_string(*daemon, path + ".daemon");
    if (d.daemon != "random" && d.daemon != "round-robin" &&
        d.daemon != "first-enabled") {
      fail(path + ".daemon", "expected random | round-robin | first-enabled",
           *daemon);
    }
  }
  if (const JsonValue* deadline = v.find("deadline_ms")) {
    d.deadline_ms = expect_int(*deadline, path + ".deadline_ms");
  }
  take_size("retries", &d.retries);
  if (const JsonValue* backoff = v.find("backoff_ms")) {
    d.backoff_ms = expect_int(*backoff, path + ".backoff_ms");
  }
  take_u64("walks", &d.walks);
  take_u64("walk_length", &d.walk_length);
  if (const JsonValue* byzantine = v.find("byzantine")) {
    expect_array(*byzantine, path + ".byzantine");
    for (std::size_t i = 0; i < byzantine->array.size(); ++i) {
      d.byzantine.push_back(static_cast<int>(
          expect_int(byzantine->array[i],
                     path + ".byzantine[" + std::to_string(i) + "]")));
    }
  }
  take_u64("max_candidates", &d.max_candidates);
  return d;
}

}  // namespace

SpecDoc parse_spec(const std::string& text) {
  const JsonValue root = util::parse_json(text);
  const std::string path = "$";
  expect_object(root, path);
  reject_unknown_keys(root, path,
                      {"schema", "name", "params", "topology",
                       "interleave_processes", "variables", "constraints",
                       "actions", "fault_span", "s_override", "stabilizing",
                       "faults", "fault_seed", "job"});

  SpecDoc doc;
  doc.text = text;

  const JsonValue* schema = root.find("schema");
  if (schema == nullptr) {
    fail(path, "missing required field \"schema\"", root);
  }
  doc.schema = expect_string(*schema, path + ".schema");
  if (doc.schema != kSchemaVersion) {
    fail(path + ".schema",
         std::string("unsupported schema '") + doc.schema + "' (expected \"" +
             kSchemaVersion + "\")",
         *schema);
  }
  const JsonValue* name = root.find("name");
  if (name == nullptr) fail(path, "missing required field \"name\"", root);
  doc.name = expect_string(*name, path + ".name");
  if (doc.name.empty()) fail(path + ".name", "empty design name", *name);

  if (const JsonValue* params = root.find("params")) {
    expect_object(*params, path + ".params");
    for (const auto& [key, value] : params->object) {
      doc.params.emplace_back(key,
                              expect_int(value, path + ".params." + key));
    }
  }
  if (const JsonValue* topology = root.find("topology")) {
    doc.topology = parse_topology(*topology, path + ".topology");
    doc.has_topology = true;
  }
  if (const JsonValue* interleave = root.find("interleave_processes")) {
    doc.interleave_processes =
        expect_bool(*interleave, path + ".interleave_processes");
  }

  const JsonValue* variables = root.find("variables");
  if (variables == nullptr) {
    fail(path, "missing required field \"variables\"", root);
  }
  expect_array(*variables, path + ".variables");
  if (variables->array.empty()) {
    fail(path + ".variables", "at least one variable is required",
         *variables);
  }
  for (std::size_t i = 0; i < variables->array.size(); ++i) {
    doc.variables.push_back(
        parse_variable(variables->array[i],
                       path + ".variables[" + std::to_string(i) + "]"));
  }

  if (const JsonValue* constraints = root.find("constraints")) {
    expect_array(*constraints, path + ".constraints");
    for (std::size_t i = 0; i < constraints->array.size(); ++i) {
      doc.constraints.push_back(
          parse_constraint(constraints->array[i],
                           path + ".constraints[" + std::to_string(i) + "]"));
    }
  }

  const JsonValue* actions = root.find("actions");
  if (actions == nullptr) {
    fail(path, "missing required field \"actions\"", root);
  }
  expect_array(*actions, path + ".actions");
  if (actions->array.empty()) {
    fail(path + ".actions", "at least one action is required", *actions);
  }
  for (std::size_t i = 0; i < actions->array.size(); ++i) {
    doc.actions.push_back(parse_action(
        actions->array[i], path + ".actions[" + std::to_string(i) + "]"));
  }

  if (const JsonValue* fault_span = root.find("fault_span")) {
    doc.fault_span = expect_string(*fault_span, path + ".fault_span");
  }
  if (const JsonValue* s_override = root.find("s_override")) {
    doc.s_override = expect_string(*s_override, path + ".s_override");
  }
  if (const JsonValue* stabilizing = root.find("stabilizing")) {
    doc.stabilizing = expect_bool(*stabilizing, path + ".stabilizing");
  }
  if (const JsonValue* faults = root.find("faults")) {
    expect_array(*faults, path + ".faults");
    for (std::size_t i = 0; i < faults->array.size(); ++i) {
      doc.faults.push_back(parse_fault(
          faults->array[i], path + ".faults[" + std::to_string(i) + "]"));
    }
  }
  if (const JsonValue* fault_seed = root.find("fault_seed")) {
    const long long parsed = expect_int(*fault_seed, path + ".fault_seed");
    if (parsed < 0) fail(path + ".fault_seed", "must be >= 0", *fault_seed);
    doc.fault_seed = static_cast<std::uint64_t>(parsed);
  }
  if (const JsonValue* job = root.find("job")) {
    doc.job = parse_job(*job, path + ".job");
    doc.has_job = true;
  }
  return doc;
}

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

std::string fnv1a64_hex(std::string_view text) {
  std::uint64_t hash = fnv1a64(text);
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = "0123456789abcdef"[hash & 0xFu];
    hash >>= 4;
  }
  return out;
}

}  // namespace nonmask::spec
