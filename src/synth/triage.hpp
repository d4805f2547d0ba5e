// Certificate triage under restricted fault models.
//
// The Theorem 1–3 certification cascade (certify_design.hpp) explains *why*
// a design converges — under the paper's transient fault model. A restricted
// model can void that explanation: a Byzantine process re-violates its
// constraints forever, and an unchangeable environment action may keep a
// constraint perpetually off. Triage re-audits each design against each
// fault regime and classifies the certificate's fate:
//
//   survives    — the guarantee holds as stated (theorem certificate under
//                 transient faults; containment under Byzantine; unfair
//                 convergence of the composed system under environment).
//   falls back  — a weaker but sound guarantee replaces it (exhaustive-only
//                 certificate; hill-climb evidence where the composed space
//                 is too large; convergence only under weak fairness).
//   refuted     — the regime breaks the guarantee outright (not tolerant;
//                 no containment at the worst placement; a fair loop that
//                 never re-establishes S).
//
// The result renders as the per-protocol triage table in RunReport JSON and
// as a DashboardTable card in the HTML dashboard.
#pragma once

#include <string>
#include <vector>

#include "checker/restricted.hpp"
#include "core/candidate.hpp"
#include "obs/dashboard.hpp"
#include "resilience/adversary.hpp"
#include "synth/certify_design.hpp"

namespace nonmask::synth {

enum class TriageVerdict { kSurvives, kFallsBack, kRefuted };

const char* to_string(TriageVerdict verdict) noexcept;

struct TriageEntry {
  std::string design;
  FaultRegime regime = FaultRegime::kTransient;
  TriageVerdict verdict = TriageVerdict::kRefuted;
  /// The certificate / replacement evidence, e.g. "theorem1" or
  /// "contained: radius 1 < horizon 4 at worst placement {4}".
  std::string detail;
};

/// Triage one design: always a transient row; a Byzantine row when the
/// program has >= 2 processes; an environment row when it declares
/// kEnvironment actions. `byzantine` sets the Byzantine set size and seed
/// of the benchmark placement and of the placement search, and its
/// `containment` config runs every exhaustive pass. The transient and
/// environment rows are audited exhaustively when the design's space fits
/// 2^20 states. Deterministic per seed.
std::vector<TriageEntry> triage_design(
    const Design& design, const ByzantinePlacementOptions& byzantine = {});

/// The triage table as a JSON array (RunReport section payload).
std::string triage_to_json(const std::vector<TriageEntry>& entries);

/// The triage table as a dashboard card.
obs::DashboardTable triage_dashboard_table(
    const std::vector<TriageEntry>& entries);

}  // namespace nonmask::synth
