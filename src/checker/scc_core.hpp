// The weakly-fair convergence check's Tarjan/SCC pass, factored as a
// template over its per-state bookkeeping — the same split that
// convergence_core.hpp gives the unfair DFS:
//
//   - the serial oracle (convergence_check.cpp): int32 index/lowlink,
//     byte on-stack marks, and an int32 component array, all sized by the
//     full code range (~13 bytes/state);
//   - the engine (store/store_check.cpp): a u32 visit-index array over
//     the codes, slab-grown u32 lowlinks indexed by dense visit id
//     (a popped state's slot then holds its component id), and 1-bit
//     on-stack marks.
//
// Both instantiate the same traversal and analysis statements in the same
// order, so every count, verdict, and counterexample is a pure function of
// the traversal — the byte-identical-reports contract of store/facade.hpp.
// Successor lists come from any source with convergence_core.hpp's
// successors() contract.
//
// Like the unfair DFS, the pass reuses its buffers: stack frames keep their
// successor buffers across pops, one member buffer collects every popped
// SCC (handed over to the analysis only for a nontrivial one), and the
// fair-escape analysis decodes each member once into one scratch state and
// takes its successor codes from one SuccessorCodes. It allocates per new
// stack depth and per nontrivial SCC, not per state.
//
// Bookkeeping requirements (all codes pre-initialized to "unvisited"):
//   bool visited(code)
//   std::uint32_t index(code) / void set_index(code, v)    Tarjan visit order
//   std::uint32_t lowlink(code) / void set_lowlink(code, v)
//   bool on_stack(code) / void set_on_stack(code, bool)
//   void mark_component(code, comp)      every popped state, every SCC;
//                                        may overwrite code's lowlink
//   bool in_component(code, comp)        comp is always a nontrivial SCC
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "checker/convergence_check.hpp"
#include "obs/metrics.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace nonmask::detail {

/// Dense Tarjan bookkeeping of the serial oracle: one array slot per code
/// over the full range (~13 bytes/state, which keeps it near ~32M states);
/// the engine instantiates the same core over packed and visit-ordered
/// arrays.
struct DenseTarjanBookkeeping {
  static constexpr std::int32_t kUnvisited = -1;

  explicit DenseTarjanBookkeeping(std::uint64_t size)
      : index_(size, kUnvisited),
        lowlink_(size, 0),
        on_stack_(size, 0),
        component_(size, -1) {}

  bool visited(std::uint64_t code) const { return index_[code] != kUnvisited; }
  std::uint32_t index(std::uint64_t code) const {
    return static_cast<std::uint32_t>(index_[code]);
  }
  void set_index(std::uint64_t code, std::uint32_t v) {
    index_[code] = static_cast<std::int32_t>(v);
  }
  std::uint32_t lowlink(std::uint64_t code) const {
    return static_cast<std::uint32_t>(lowlink_[code]);
  }
  void set_lowlink(std::uint64_t code, std::uint32_t v) {
    lowlink_[code] = static_cast<std::int32_t>(v);
  }
  bool on_stack(std::uint64_t code) const { return on_stack_[code] != 0; }
  void set_on_stack(std::uint64_t code, bool b) {
    on_stack_[code] = b ? 1 : 0;
  }
  void mark_component(std::uint64_t code, std::int32_t comp) {
    component_[code] = comp;
  }
  bool in_component(std::uint64_t code, std::int32_t comp) const {
    return component_[code] == comp;
  }

  std::vector<std::int32_t> index_;
  std::vector<std::int32_t> lowlink_;
  std::vector<std::uint8_t> on_stack_;
  std::vector<std::int32_t> component_;
};

/// Iterative Tarjan over the implicit ¬S region reachable from T ∧ ¬S,
/// then the fair-escape analysis of every nontrivial SCC (Section 8's
/// weakly-fair daemon): a nontrivial SCC is harmless when some action is
/// enabled at every SCC state and each of its firings exits the SCC; a
/// closed SCC (every enabled action stays inside) is an exact violation
/// with the SCC as the cycle counterexample.
template <class Flags, class Successors, class Bookkeeping>
ConvergenceReport check_convergence_weakly_fair_core_impl(
    const StateSpace& space, const Flags& flags, Successors& succ,
    const std::vector<std::size_t>& actions, ConvergenceReport report,
    Bookkeeping& bk) {
  obs::Span scc_span("checker.scc");
  obs::Counter* const explored = obs::explored_states();

  // frames[0, depth) is the DFS stack; frames past it are kept for their
  // buffers. A push may reallocate `frames`: no TarjanFrame& is used across
  // one.
  struct TarjanFrame {
    std::uint64_t code;
    std::vector<std::uint64_t> succs;
    std::size_t next = 0;
  };
  std::vector<TarjanFrame> frames;
  std::size_t depth = 0;
  std::vector<std::uint64_t> tarjan_stack;
  std::uint32_t next_index = 0;
  std::int32_t num_components = 0;
  struct NontrivialScc {
    std::int32_t id;
    std::vector<std::uint64_t> members;  ///< pop order (= the cycle order)
  };
  std::vector<NontrivialScc> nontrivial;
  std::vector<std::uint64_t> scc;  ///< members of the SCC being popped

  auto in_region = [&](std::uint64_t code) {
    return (flags[code] & kFlagS) == 0;
  };

  for (std::uint64_t start = 0; start < space.size(); ++start) {
    if ((flags[start] & kFlagT) == 0 || !in_region(start)) continue;
    if (bk.visited(start)) continue;

    auto push_node = [&](std::uint64_t code) -> bool {
      if (depth == frames.size()) frames.emplace_back();
      TarjanFrame& frame = frames[depth];
      frame.code = code;
      frame.next = 0;
      succ.successors(code, frame.succs);
      report.transitions += frame.succs.size();
      ++report.region_states;
      if (explored != nullptr) explored->add(1);
      if (frame.succs.empty()) {  // no action enabled
        report.verdict = ConvergenceVerdict::kViolated;
        report.deadlock = space.decode(code);
        return false;
      }
      bk.set_index(code, next_index);
      bk.set_lowlink(code, next_index);
      ++next_index;
      tarjan_stack.push_back(code);
      bk.set_on_stack(code, true);
      ++depth;
      return true;
    };

    if (!push_node(start)) {
      record_convergence_metrics(report);
      return report;
    }

    while (depth > 0) {
      TarjanFrame& frame = frames[depth - 1];
      if (frame.next < frame.succs.size()) {
        const std::uint64_t next = frame.succs[frame.next++];
        if (!in_region(next)) continue;  // exits to S
        if (!bk.visited(next)) {
          if (!push_node(next)) {
            record_convergence_metrics(report);
            return report;
          }
        } else if (bk.on_stack(next)) {
          bk.set_lowlink(frame.code,
                         std::min(bk.lowlink(frame.code), bk.index(next)));
        }
      } else {
        const std::uint64_t v = frame.code;
        // Read before the pop below: bookkeeping may reuse a popped
        // state's lowlink slot for its component id.
        const std::uint32_t v_lowlink = bk.lowlink(v);
        if (v_lowlink == bk.index(v)) {
          scc.clear();
          while (true) {
            const std::uint64_t w = tarjan_stack.back();
            tarjan_stack.pop_back();
            bk.set_on_stack(w, false);
            bk.mark_component(w, num_components);
            scc.push_back(w);
            if (w == v) break;
          }
          // Member lists are kept only for SCCs that can host an infinite
          // computation: size > 1, or a singleton with a self-loop (v among
          // its own sorted-distinct successors).
          const bool has_internal_transition =
              scc.size() > 1 ||
              std::binary_search(frame.succs.begin(), frame.succs.end(), v);
          if (has_internal_transition) {
            // Moved, not copied, so a large SCC is never held twice; the
            // buffer regrows only after a nontrivial SCC.
            nontrivial.push_back({num_components, std::move(scc)});
          }
          ++num_components;
        }
        --depth;
        if (depth > 0) {
          const std::uint64_t parent = frames[depth - 1].code;
          bk.set_lowlink(parent, std::min(bk.lowlink(parent), v_lowlink));
        }
      }
    }
  }

  // Analyze each nontrivial SCC of the region, in pop order.
  if (obs::Metrics::enabled()) {
    obs::Registry::instance()
        .counter("checker.scc.components")
        .add(static_cast<std::uint64_t>(num_components));
  }
  // Each member is decoded once, and each action's successor there is
  // generated once for both tests: an action stays a fair-escape candidate
  // while it is enabled at every member so far and each firing exits the
  // SCC, and the SCC stays closed while every enabled firing stays inside.
  // Both are booleans, so the state-major order cannot change them.
  bool all_escape = true;
  SuccessorCodes codes(space, actions);
  State scratch(space.program().num_variables());
  std::vector<std::uint8_t> candidate;
  for (const NontrivialScc& entry : nontrivial) {
    candidate.assign(actions.size(), 1);
    std::size_t candidates = actions.size();
    bool closed_scc = true;
    for (std::uint64_t code : entry.members) {
      if (candidates == 0 && !closed_scc) break;
      space.decode_into(code, scratch);
      for (std::size_t i = 0; i < actions.size(); ++i) {
        if (candidate[i] == 0 && !closed_scc) continue;
        const std::uint64_t next = codes.successor(i, code, scratch);
        const bool exits =
            next != SuccessorCodes::kDisabled &&
            !(in_region(next) && bk.in_component(next, entry.id));
        if (exits) {
          closed_scc = false;
        } else if (candidate[i] != 0) {
          candidate[i] = 0;
          --candidates;
        }
      }
    }
    // Fair-escape: some action enabled at every SCC state whose firing
    // always exits the SCC.
    if (candidates > 0) continue;
    // Exact violation when every enabled action at every SCC state stays
    // inside the SCC: even fair computations can loop forever.
    if (closed_scc) {
      std::vector<State> cycle;
      for (std::uint64_t code : entry.members) {
        cycle.push_back(space.decode(code));
      }
      report.verdict = ConvergenceVerdict::kViolated;
      report.cycle = std::move(cycle);
      record_convergence_metrics(report);
      return report;
    }
    all_escape = false;
  }

  report.verdict = all_escape ? ConvergenceVerdict::kConverges
                              : ConvergenceVerdict::kUnknown;
  record_convergence_metrics(report);
  return report;
}

}  // namespace nonmask::detail
