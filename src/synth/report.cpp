#include "synth/report.hpp"

#include <fstream>

#include "util/json.hpp"

namespace nonmask::synth {

std::string render_synthesis_report(const SynthesisResult& result) {
  std::string out;
  util::JsonWriter w(&out);
  w.begin_object();
  w.key("success");
  w.value(result.success);
  if (!result.success) {
    w.key("failure");
    w.value(result.failure);
  } else {
    w.key("design");
    w.value(result.design.name);
  }

  w.key("pools");
  w.begin_array();
  for (const PoolStats& p : result.pools) {
    w.begin_object();
    w.key("constraint");
    w.value(p.constraint);
    w.key("enumerated");
    w.value(static_cast<std::uint64_t>(p.enumerated));
    w.key("kept");
    w.value(static_cast<std::uint64_t>(p.kept));
    w.end_object();
  }
  w.end_array();
  w.key("total_combinations");
  w.value(result.total_combinations);

  w.key("stats");
  w.begin_object();
  w.key("enumerated_actions");
  w.value(result.stats.enumerated_actions);
  w.key("local_pruned_actions");
  w.value(result.stats.local_pruned_actions);
  w.key("evaluated");
  w.value(result.stats.evaluated);
  w.key("pruned_by_seed");
  w.value(result.stats.pruned_by_seed);
  w.key("falsified");
  w.value(result.stats.falsified);
  w.key("exact_checks");
  w.value(result.stats.exact_checks);
  w.key("exact_failures");
  w.value(result.stats.exact_failures);
  w.key("seeds_collected");
  w.value(result.stats.seeds_collected);
  w.key("batches");
  w.value(result.stats.batches);
  w.end_object();

  if (result.success) {
    w.key("winner");
    w.begin_object();
    w.key("index");
    w.value(result.winner_index);
    w.key("choice");
    w.begin_array();
    for (std::size_t c : result.winner_choice) {
      w.value(static_cast<std::uint64_t>(c));
    }
    w.end_array();
    w.key("actions");
    w.begin_array();
    for (const std::string& d : result.winner_descriptions) w.value(d);
    w.end_array();
    w.end_object();

    const CertificationResult& cert = result.certification;
    w.key("certificate");
    w.begin_object();
    w.key("method");
    w.value(to_string(cert.method));
    w.key("theorem_certified");
    w.value(cert.theorem_certified());
    if (!cert.report.theorem.empty()) {
      w.key("theorem");
      w.value(cert.report.theorem);
    }
    if (!cert.report.ranks.empty()) {
      w.key("ranks");
      w.begin_array();
      for (int r : cert.report.ranks) w.value(r);
      w.end_array();
    }
    if (!cert.report.layers.empty()) {
      w.key("layers");
      w.begin_array();
      for (const auto& layer : cert.report.layers) {
        w.begin_array();
        for (std::size_t a : layer) w.value(static_cast<std::uint64_t>(a));
        w.end_array();
      }
      w.end_array();
    }
    if (!cert.restricted_dropped.empty()) {
      w.key("restricted_dropped");
      w.begin_array();
      for (std::size_t a : cert.restricted_dropped) {
        w.value(static_cast<std::uint64_t>(a));
      }
      w.end_array();
    }
    w.key("attempts");
    w.begin_array();
    for (const std::string& a : cert.attempts) w.value(a);
    w.end_array();
    if (!cert.audit_problems.empty()) {
      w.key("audit_problems");
      w.begin_array();
      for (const std::string& p : cert.audit_problems) w.value(p);
      w.end_array();
    }
    w.end_object();

    w.key("exact");
    w.begin_object();
    w.key("S_closed");
    w.value(result.exact.closure_S.closed);
    w.key("T_closed");
    w.value(result.exact.closure_T.closed);
    w.key("verdict");
    w.value(to_string(result.exact.convergence.verdict));
    w.key("region_states");
    w.value(result.exact.convergence.region_states);
    w.key("max_steps_to_S");
    w.value(result.exact.convergence.max_steps_to_S);
    w.end_object();
  }
  w.end_object();
  return out;
}

bool write_synthesis_report(const SynthesisResult& result,
                            const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  out << render_synthesis_report(result) << "\n";
  return static_cast<bool>(out);
}

}  // namespace nonmask::synth
