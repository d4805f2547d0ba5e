// Built-in protocol registry: the bridge between spec names and the
// hand-coded factories in src/protocols/.
//
// Each entry holds a canonical name (the hand-coded design's name), a
// one-line description, and a make() thunk producing the hand-coded Design
// at the registry's fixed instance parameters. The spec document for the
// same instance comes from emit_builtin_spec(name) (spec/emit.hpp); the
// round-trip tests compile it against make() and demand byte-identical
// checker reports. Specs never refer to an entry by name: a document
// declares its whole design, and the parser rejects a top-level
// "protocol" key as unknown.
//
// The registry is also the door onto the certification cascade: a spec job
// of type "certify" runs synth::certify_design (Theorems 1-3, then the
// exhaustive checker as the certificate of last resort) on whatever
// design the spec compiled to — built-in or hand-authored alike.
#pragma once

#include <string>
#include <vector>

#include "core/candidate.hpp"

namespace nonmask::spec {

struct RegistryEntry {
  std::string name;
  std::string description;
  /// The hand-coded factory at this entry's fixed instance parameters.
  Design (*make)();
};

/// All built-in entries, in a stable documented order.
const std::vector<RegistryEntry>& registry();

/// Entry by name, or nullptr.
const RegistryEntry* find_protocol(const std::string& name);

}  // namespace nonmask::spec
