// Spec compilation: SpecDoc -> executable Design + fault schedule + job.
//
// The compiler expands a parameterized spec over its topology (per-process
// variables, constraints, and actions with binder `j`), resolves every
// expression against the growing program, derives read sets and constraint
// supports where the document leaves them implicit, and packages the result
// as the same core::Design the hand-coded protocols produce — so every
// downstream facility (checkers, campaigns, containment, synthesis,
// certification) runs unchanged on spec-born designs.
//
// Expansion rules:
//  * per-process variables become `name.j` instances owned by process j;
//    consecutive per-process declarations expand process-major (all of
//    process 0's, then process 1's, ...) when `interleave_processes` is
//    set, declaration-major otherwise. Instances are also registered as a
//    *family* so expressions can write `name[j]`.
//  * per-process constraints/actions expand declaration-major, except that
//    consecutive declarations sharing a `group` expand process-major
//    interleaved — matching hand-coded protocols that add, say, accept.j /
//    propose.j / retract.j per process.
//  * `{j}` in a name substitutes the process index; a per-process name
//    without `{j}` gets `.j` appended.
//  * assignments are simultaneous: every right-hand side is evaluated
//    against the pre-state, then all writes land.
//
// Compilation errors are SpecErrors carrying the JSON path and line of the
// offending declaration.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "core/candidate.hpp"
#include "faults/schedule.hpp"
#include "spec/expr.hpp"
#include "spec/spec.hpp"

namespace nonmask::spec {

struct CompiledSpec {
  Design design;
  Topology topology;
  FaultSchedule schedule;  ///< composed from the spec's `faults` array
  /// The design's footprint tables (spec/footprint.hpp), for inspection:
  /// the closures that look them up share them and keep them alive.
  std::shared_ptr<const FootprintTables> tables;
  std::uint64_t fault_seed = 1;
  bool has_job = false;
  JobDecl job;

  // Provenance (RunReport "spec" blocks).
  std::string spec_name;
  std::string schema;
  std::string content_hash;  ///< fnv1a64_hex of the raw document text
};

/// Build the expansion-time topology view from a declaration.
Topology build_topology(const TopologyDecl& decl);

/// Compile a parsed spec document. Throws SpecError on any semantic
/// problem (unknown names, non-constant index expressions, bad processes).
CompiledSpec compile_spec(const SpecDoc& doc);

/// Convenience: parse_spec + compile_spec.
CompiledSpec compile_spec_text(const std::string& text);

}  // namespace nonmask::spec
