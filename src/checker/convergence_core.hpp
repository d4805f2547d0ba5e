// The cycle/deadlock DFS at the heart of the unfair convergence check,
// factored as a template over its per-state bookkeeping so one traversal
// serves two memory layouts:
//
//   - the serial oracle (convergence_check.cpp): byte color and u32 dist
//     vectors sized by the full code range;
//   - the engine (store/store_check.cpp): 2-bit colors and narrow
//     distance arrays — the layout that lifts exhaustive checking from
//     ~32M to 10^8+ states.
//
// Both instantiate the *same* statements in the same order, which is the
// backbone of the engine's byte-identical-reports contract: given the same
// sorted successor lists, every count, verdict, distance, and
// counterexample below is a pure function of the traversal, not of the
// bookkeeping representation or of where the lists come from
// (ProgramSuccessors generates them on demand; the engine may prefetch
// them in parallel).
//
// The DFS stack is a vector of frames that outlive their pops: each keeps
// its successor buffer for the next push to the same depth, so the
// traversal allocates per new depth, not per state. There is no separate
// path vector; the frames' codes are the path, and a cycle's start is
// found by searching them once, when the check ends.
//
// Successors requirement:
//   successors(code, std::vector<std::uint64_t>& out)
//                                       ProgramSuccessors' sorted distinct
//                                       codes; empty = deadlock. `out` is a
//                                       reused frame buffer: replace its
//                                       contents. A return value is ignored
//
// Bookkeeping requirements (all codes pre-initialized to "unvisited"):
//   std::uint8_t color(code)            0 = unvisited, 1 = on stack, 2 = done
//   void set_color(code, std::uint8_t)
//   std::uint32_t dist(code)            longest known path to S (init 0)
//   void set_dist(code, std::uint32_t)  may throw to reject a distance that
//                                       exceeds the layout's width
//
// A caller that restarts the traversal after such a throw passes the
// number of states the abandoned attempt pushed as `counted`: the restart
// expands the same states in the same order, and those are not counted as
// explored a second time.
#pragma once

#include <algorithm>
#include <vector>

#include "checker/convergence_check.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"

namespace nonmask::detail {

template <class Flags, class Successors, class Bookkeeping>
ConvergenceReport check_convergence_core_impl(const StateSpace& space,
                                              const Flags& flags,
                                              Successors& succ,
                                              ConvergenceReport report,
                                              Bookkeeping& bk,
                                              std::uint64_t counted = 0) {
  obs::Span dfs_span("checker.dfs");
  obs::Counter* const explored = obs::explored_states();

  // frames[0, depth) is the DFS path; frames past it are kept for their
  // buffers. A push may reallocate `frames`: no DfsFrame& is used across
  // one.
  struct DfsFrame {
    std::uint64_t code;
    std::vector<std::uint64_t> succs;
    std::size_t next = 0;
  };
  std::vector<DfsFrame> frames;
  std::size_t depth = 0;

  for (std::uint64_t start = 0; start < space.size(); ++start) {
    if ((flags[start] & kFlagT) == 0) continue;  // computations start in T
    if ((flags[start] & kFlagS) != 0) continue;  // already in S
    if (bk.color(start) != 0) continue;

    auto push_node = [&](std::uint64_t code) -> bool {
      if (depth == frames.size()) frames.emplace_back();
      DfsFrame& frame = frames[depth];
      frame.code = code;
      frame.next = 0;
      succ.successors(code, frame.succs);
      report.transitions += frame.succs.size();
      ++report.region_states;
      if (explored != nullptr && report.region_states > counted) {
        explored->add(1);
      }
      if (frame.succs.empty()) {  // no action enabled
        report.verdict = ConvergenceVerdict::kViolated;
        report.deadlock = space.decode(code);
        return false;
      }
      bk.set_color(code, 1);
      ++depth;
      return true;
    };

    if (!push_node(start)) {
      record_convergence_metrics(report);
      return report;
    }

    while (depth > 0) {
      DfsFrame& frame = frames[depth - 1];
      if (frame.next < frame.succs.size()) {
        const std::uint64_t next = frame.succs[frame.next++];
        if ((flags[next] & kFlagS) != 0) {
          bk.set_dist(frame.code, std::max(bk.dist(frame.code), 1u));
          continue;
        }
        if (bk.color(next) == 0) {
          if (!push_node(next)) {
            record_convergence_metrics(report);
            return report;
          }
        } else if (bk.color(next) == 1) {
          // Cycle: color 1 means `next` is on the DFS path, and the path
          // from it is the counterexample. The search runs once, when the
          // check ends, so no per-state path position is kept.
          std::size_t at = 0;
          while (frames[at].code != next) ++at;
          std::vector<State> cycle;
          for (; at < depth; ++at) {
            cycle.push_back(space.decode(frames[at].code));
          }
          report.verdict = ConvergenceVerdict::kViolated;
          report.cycle = std::move(cycle);
          record_convergence_metrics(report);
          return report;
        } else {
          bk.set_dist(frame.code,
                      std::max(bk.dist(frame.code), bk.dist(next) + 1));
        }
      } else {
        bk.set_color(frame.code, 2);
        const std::uint32_t d = bk.dist(frame.code);
        report.max_steps_to_S =
            std::max<std::uint64_t>(report.max_steps_to_S, d);
        const std::uint64_t done = frame.code;
        --depth;
        if (depth > 0) {
          const std::uint64_t parent = frames[depth - 1].code;
          bk.set_dist(parent, std::max(bk.dist(parent), bk.dist(done) + 1));
        }
      }
    }
  }

  report.verdict = ConvergenceVerdict::kConverges;
  record_convergence_metrics(report);
  return report;
}

}  // namespace nonmask::detail
