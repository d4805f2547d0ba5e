// Spec job execution: run one compiled spec's job request and package the
// result as a RunReport document.
//
// Every report opens with a "spec" provenance section (spec name, schema
// version, FNV-1a content hash of the raw document) so any artifact can be
// traced back to the exact spec text that produced it. Campaign reports
// then mirror examples/parallel_campaign.cpp section for section — trials,
// seed, campaign — so a spec-driven campaign diffs byte-identically
// (modulo tool / started_at / wall_ms / metrics / spec) against the
// hand-coded CLI path; CI relies on this.
#pragma once

#include <iosfwd>
#include <string>

#include "spec/compile.hpp"

namespace nonmask::spec {

struct JobOptions {
  /// Campaign checkpoint journal (JSONL, flushed per trial); empty = none.
  std::string checkpoint;
  /// Replay the journal's valid prefix instead of re-running those trials.
  bool resume = false;
  /// Optional per-trial JSONL sink (campaign jobs).
  std::ostream* jsonl = nullptr;
};

struct JobResult {
  /// The full RunReport JSON document.
  std::string report_json;
  /// Job-level verdict: tolerant / not falsified / contained / synthesized
  /// / certified, per job type.
  bool ok = false;
  /// One-line human summary, e.g. "convergence: converges (512 states)".
  std::string summary;
};

/// Run the compiled spec's job (the "job" member; a missing job runs a
/// default exhaustive check). Throws SpecError for unrunnable requests
/// (e.g. a containment job without a Byzantine placement).
JobResult run_spec_job(const CompiledSpec& spec, const JobOptions& opts = {});

}  // namespace nonmask::spec
