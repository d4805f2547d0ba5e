// Synthesis report: a machine-readable JSON account of one synthesizer
// run — pool sizes, pruning statistics, the winning combination, its
// certificate, and the exact checker's verdict.
//
// The report deliberately contains no timestamps, walltimes, or thread
// counts: identical seeds must yield byte-identical reports regardless of
// parallelism, so reports can be diffed across machines and CI runs (the
// determinism acceptance check does exactly that).
#pragma once

#include <string>

#include "synth/synthesize.hpp"

namespace nonmask::synth {

/// Render the report as a JSON object (no trailing newline).
std::string render_synthesis_report(const SynthesisResult& result);

}  // namespace nonmask::synth
