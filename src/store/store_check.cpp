#include "store/facade.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <string>

#include "checker/convergence_core.hpp"
#include "checker/scc_core.hpp"
#include "core/candidate.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "parallel/thread_pool.hpp"
#include "store/bitset.hpp"
#include "store/frontier.hpp"
#include "store/odometer.hpp"

namespace nonmask::store {

namespace {

std::size_t chunk_count(std::uint64_t range, std::uint64_t grain) {
  return static_cast<std::size_t>((range + grain - 1) / grain);
}

/// Chunk grain rounded up to a multiple of 32, so parallel chunks never
/// share a TwoBitArray word (32 2-bit entries per 64-bit word).
std::uint64_t aligned_grain(const StoreConfig& config) {
  return (std::max<std::uint64_t>(config.grain, 32) + 31) & ~std::uint64_t{31};
}

/// scan_closure_range with the decode replaced by an odometer ripple and
/// each successor built in one scratch state per chunk; counts, early exit,
/// and the violation triple are exactly the serial scan's.
ClosureReport scan_closure_range_odometer(
    const StateSpace& space, const PredicateFn& predicate,
    const std::vector<std::size_t>& actions, std::uint64_t begin,
    std::uint64_t end) {
  const Program& p = space.program();
  ClosureReport report;
  OdometerCursor cur(space, begin);
  State next(p.num_variables());
  for (std::uint64_t code = begin; code < end; ++code) {
    const State& s = cur.state();
    if (predicate(s)) {
      ++report.states_checked;
      for (std::size_t idx : actions) {
        const Action& a = p.action(idx);
        if (!a.enabled(s)) continue;
        ++report.transitions_checked;
        a.apply_into(s, next);
        if (!predicate(next)) {
          report.closed = false;
          report.violation = ClosureViolation{s, idx, next};
          return report;
        }
      }
    }
    if (code + 1 < end) cur.advance();
  }
  report.closed = true;
  return report;
}

/// evaluate_flags into a TwoBitArray (2 bits/state instead of a byte),
/// chunk-parallel with in-order count reduction — same counts as the
/// serial oracle's flag pass.
TwoBitArray evaluate_flags_store(ThreadPool& pool, const StateSpace& space,
                                 const PredicateFn& S, const PredicateFn& T,
                                 std::uint64_t grain,
                                 ConvergenceReport& report) {
  obs::Span span("store.flags");
  obs::ProgressMeter meter("flags", space.size());
  TwoBitArray flags(space.size());
  struct Counts {
    std::uint64_t in_S = 0;
    std::uint64_t in_T = 0;
  };
  std::vector<Counts> counts(chunk_count(space.size(), grain));
  parallel_for_chunked(
      pool, 0, space.size(), grain,
      [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
          unsigned worker) {
        (void)worker;
        obs::Span chunk_span("store.flags.chunk");
        OdometerCursor cur(space, lo);
        Counts c;
        for (std::uint64_t code = lo; code < hi; ++code) {
          const State& s = cur.state();
          std::uint8_t f = 0;
          const bool in_T = T(s);
          if (in_T) f |= detail::kFlagT;
          if (S(s)) {
            f |= detail::kFlagS;
            if (in_T) ++c.in_S;
          }
          if (in_T) ++c.in_T;
          flags.set(code, f);
          if (code + 1 < hi) cur.advance();
        }
        counts[chunk] = c;
        meter.add(hi - lo);
      });
  for (const Counts& c : counts) {
    report.states_in_S += c.in_S;
    report.states_in_T += c.in_T;
  }
  return flags;
}

/// Thrown by the u16 bookkeeping when a convergence distance exceeds its
/// width; the caller restarts the identical traversal with u32 distances.
struct DistanceOverflow {};

template <typename DistT>
struct CompactDfsBookkeeping {
  explicit CompactDfsBookkeeping(std::uint64_t size)
      : color_(size), dist_(size, 0) {}

  std::uint8_t color(std::uint64_t code) const { return color_[code]; }
  void set_color(std::uint64_t code, std::uint8_t c) { color_.set(code, c); }
  std::uint32_t dist(std::uint64_t code) const { return dist_[code]; }
  void set_dist(std::uint64_t code, std::uint32_t d) {
    if (d > std::numeric_limits<DistT>::max()) throw DistanceOverflow{};
    dist_[code] = static_cast<DistT>(d);
  }

  TwoBitArray color_;
  std::vector<DistT> dist_;
};

/// Marks an unvisited code in the Tarjan visit index; visit ids stay below.
constexpr std::uint32_t kUnvisited = ~std::uint32_t{0};

/// Store-native Tarjan bookkeeping (checker/scc_core.hpp contract). The
/// per-code state is a u32 visit index (kUnvisited until visited) plus one
/// on-stack bit; visit ids are dense, so lowlinks are indexed by id in
/// fixed-size slabs appended as the traversal grows — 4 bytes per
/// *visited* state, touched only as ids are handed out, with no
/// realloc-copy spike at 2x peak. Once a state's SCC is popped its lowlink
/// is dead, so the slot holds the component id instead of a separate
/// per-code component array.
class CompactTarjanBookkeeping {
 public:
  explicit CompactTarjanBookkeeping(std::uint64_t size)
      : index_(size, kUnvisited), on_stack_((size + 63) / 64, 0) {}

  bool visited(std::uint64_t code) const {
    return index_[code] != kUnvisited;
  }
  std::uint32_t index(std::uint64_t code) const { return index_[code]; }
  void set_index(std::uint64_t code, std::uint32_t v) { index_[code] = v; }
  std::uint32_t lowlink(std::uint64_t code) const {
    return slab_get(index_[code]);
  }
  void set_lowlink(std::uint64_t code, std::uint32_t v) {
    slab_set(index_[code], v);
  }
  bool on_stack(std::uint64_t code) const {
    return (on_stack_[code >> 6] >> (code & 63)) & 1;
  }
  void set_on_stack(std::uint64_t code, bool b) {
    const std::uint64_t mask = std::uint64_t{1} << (code & 63);
    if (b) {
      on_stack_[code >> 6] |= mask;
    } else {
      on_stack_[code >> 6] &= ~mask;
    }
  }
  void mark_component(std::uint64_t code, std::int32_t comp) {
    set_lowlink(code, static_cast<std::uint32_t>(comp));
  }
  bool in_component(std::uint64_t code, std::int32_t comp) const {
    return visited(code) && !on_stack(code) &&
           lowlink(code) == static_cast<std::uint32_t>(comp);
  }

 private:
  static constexpr std::uint32_t kSlabBits = 20;  // 1M ids / 4 MB per slab
  static constexpr std::uint32_t kSlabMask = (1u << kSlabBits) - 1;

  std::uint32_t slab_get(std::uint32_t id) const {
    return slabs_[id >> kSlabBits][id & kSlabMask];
  }
  void slab_set(std::uint32_t id, std::uint32_t v) {
    const std::uint32_t slab = id >> kSlabBits;
    // Visit ids are assigned in push order, so at most one new slab at a
    // time; the loop only guards the first touch. Slabs are left
    // uninitialized: every id's lowlink is written when it is assigned,
    // before any read, so untouched pages never fault in.
    while (slabs_.size() <= slab) {
      slabs_.push_back(std::make_unique_for_overwrite<std::uint32_t[]>(
          std::size_t{1} << kSlabBits));
    }
    slabs_[slab][id & kSlabMask] = v;
  }

  std::vector<std::uint32_t> index_;
  std::vector<std::unique_ptr<std::uint32_t[]>> slabs_;
  std::vector<std::uint64_t> on_stack_;
};

/// Largest space whose ¬S successor lists are prefetched (4 bytes per code
/// plus 4 per transition, ~120 MB for a Dijkstra ring this size). Past it
/// the traversal generates successors itself and the engine keeps its ~2.5
/// bytes per code.
constexpr std::uint64_t kPrefetchMaxCodes = std::uint64_t{1} << 22;

/// The sorted distinct successor codes of every ¬S code, generated
/// chunk-parallel before the serial DFS/SCC pass reads them in traversal
/// order — the same lists ProgramSuccessors returns, so reports do not
/// change. Each chunk owns its list buffer and its slice of the per-code
/// end offsets, so nothing is merged afterwards.
class PrefetchedSuccessors {
 public:
  PrefetchedSuccessors(ThreadPool& pool, const StateSpace& space,
                       const TwoBitArray& flags,
                       const std::vector<std::size_t>& actions,
                       std::uint64_t grain)
      : grain_(grain),
        ends_(space.size()),
        lists_(chunk_count(space.size(), grain)) {
    obs::Span span("store.prefetch");
    std::vector<ProgramSuccessors> sources(pool.size(),
                                           ProgramSuccessors(space, actions));
    parallel_for_chunked(
        pool, 0, space.size(), grain,
        [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
            unsigned worker) {
          obs::Span chunk_span("store.prefetch.chunk");
          std::vector<std::uint32_t>& list = lists_[chunk];
          std::vector<std::uint64_t> succs;
          for (std::uint64_t code = lo; code < hi; ++code) {
            if ((flags[code] & detail::kFlagS) == 0) {  // S is never expanded
              sources[worker].successors(code, succs);
              for (std::uint64_t next : succs) {
                list.push_back(static_cast<std::uint32_t>(next));
              }
            }
            ends_[code] = static_cast<std::uint32_t>(list.size());
          }
        });
  }

  void successors(std::uint64_t code, std::vector<std::uint64_t>& out) const {
    const std::uint32_t* list = lists_[code / grain_].data();
    const std::uint32_t begin = code % grain_ == 0 ? 0 : ends_[code - 1];
    out.assign(list + begin, list + ends_[code]);
  }

 private:
  std::uint64_t grain_;
  std::vector<std::uint32_t> ends_;  ///< end of each code's list in its chunk
  std::vector<std::vector<std::uint32_t>> lists_;  ///< one per chunk
};

/// Runs `traverse(successors)` over the source the pass should read:
/// prefetched lists when the pool has more than one worker, the space spans
/// more than one chunk, and it fits kPrefetchMaxCodes (and a chunk's lists
/// fit their u32 offsets); else ProgramSuccessors generating each list when
/// the traversal asks for it.
template <class Traverse>
ConvergenceReport with_successors(ThreadPool& pool, const StateSpace& space,
                                  const TwoBitArray& flags,
                                  const std::vector<std::size_t>& actions,
                                  std::uint64_t grain, Traverse&& traverse) {
  if (pool.size() > 1 && space.size() > grain &&
      space.size() <= kPrefetchMaxCodes &&
      space.size() * actions.size() <=
          std::numeric_limits<std::uint32_t>::max()) {
    PrefetchedSuccessors succ(pool, space, flags, actions, grain);
    return traverse(succ);
  }
  ProgramSuccessors succ(space, actions);
  return traverse(succ);
}

/// Visit ids and variant distances are u32, with 0xFFFFFFFF reserved.
void require_u32_ids(const StateSpace& space) {
  if (space.size() >= kUnvisited) {
    throw VisitIdRangeExceeded(space.size());
  }
}

}  // namespace

VisitIdRangeExceeded::VisitIdRangeExceeded(std::uint64_t states)
    : std::length_error(
          "state space of " + std::to_string(states) +
          " codes reaches the u32 visit-id range of the checker engine (max " +
          std::to_string(kUnvisited - 1) + " codes)"),
      states_(states) {}

ClosureReport check_closed_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& predicate,
                               const std::vector<std::size_t>& actions) {
  obs::Span span("store.closure");
  obs::ProgressMeter meter("closure", space.size(), obs::explored_states());
  ThreadPool pool(config.threads);
  const std::uint64_t grain = aligned_grain(config);
  std::vector<ClosureReport> chunks(chunk_count(space.size(), grain));
  parallel_for_chunked(
      pool, 0, space.size(), grain,
      [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
          unsigned worker) {
        (void)worker;
        obs::Span chunk_span("store.closure.chunk");
        chunks[chunk] =
            scan_closure_range_odometer(space, predicate, actions, lo, hi);
        meter.add(hi - lo);
      });

  // In-order reduction replaying the serial scan's early exit.
  ClosureReport report;
  for (ClosureReport& c : chunks) {
    report.states_checked += c.states_checked;
    report.transitions_checked += c.transitions_checked;
    if (!c.closed) {
      report.closed = false;
      report.violation = std::move(c.violation);
      detail::record_closure_metrics(report);
      return report;
    }
  }
  report.closed = true;
  detail::record_closure_metrics(report);
  return report;
}

ClosureReport check_closed_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& predicate) {
  return check_closed_via(config, space, predicate,
                          non_fault_actions(space.program()));
}

ConvergenceReport check_convergence_via(const StoreConfig& config,
                                        const StateSpace& space,
                                        const PredicateFn& S,
                                        const PredicateFn& T) {
  obs::Span span("store.convergence");
  ThreadPool pool(config.threads);
  const std::uint64_t grain = aligned_grain(config);
  ConvergenceReport report;
  const TwoBitArray flags =
      evaluate_flags_store(pool, space, S, T, grain, report);
  return with_successors(
      pool, space, flags, non_fault_actions(space.program()), grain,
      [&](auto& succ) {
        // First pass with 16-bit distances (~2.5 bytes/state total).
        // Convergence spans beyond 65535 steps are possible in principle,
        // so on overflow the identical traversal restarts from the
        // post-flags report with 32-bit distances — flags and successor
        // lists are reused, bookkeeping is rebuilt fresh.
        {
          ConvergenceReport attempt = report;
          CompactDfsBookkeeping<std::uint16_t> bk(space.size());
          try {
            return detail::check_convergence_core_impl(space, flags, succ,
                                                       std::move(attempt), bk);
          } catch (const DistanceOverflow&) {
          }
        }
        CompactDfsBookkeeping<std::uint32_t> bk(space.size());
        return detail::check_convergence_core_impl(space, flags, succ,
                                                   std::move(report), bk);
      });
}

ConvergenceReport check_convergence_weakly_fair_via(const StoreConfig& config,
                                                    const StateSpace& space,
                                                    const PredicateFn& S,
                                                    const PredicateFn& T) {
  obs::Span span("store.convergence_fair");
  require_u32_ids(space);
  ThreadPool pool(config.threads);
  const std::uint64_t grain = aligned_grain(config);
  ConvergenceReport report;
  const TwoBitArray flags =
      evaluate_flags_store(pool, space, S, T, grain, report);
  const std::vector<std::size_t> actions = non_fault_actions(space.program());
  return with_successors(
      pool, space, flags, actions, grain, [&](auto& succ) {
        CompactTarjanBookkeeping bk(space.size());
        return detail::check_convergence_weakly_fair_core_impl(
            space, flags, succ, actions, std::move(report), bk);
      });
}

std::optional<VariantFunction> compute_variant_via(const StoreConfig& config,
                                                   const StateSpace& space,
                                                   const PredicateFn& S) {
  obs::Span span("store.variant");
  require_u32_ids(space);
  ThreadPool pool(config.threads);
  const std::uint64_t grain = aligned_grain(config);
  ConvergenceReport report;
  const TwoBitArray flags = evaluate_flags_store(
      pool, space, S, true_predicate(), grain, report);
  // u32 distances directly: the dist vector doubles as the variant values,
  // so the u16 first-attempt trick would force a copy-widen on success.
  CompactDfsBookkeeping<std::uint32_t> bk(space.size());
  report = with_successors(
      pool, space, flags, non_fault_actions(space.program()), grain,
      [&](auto& succ) {
        return detail::check_convergence_core_impl(space, flags, succ,
                                                   std::move(report), bk);
      });
  if (report.verdict != ConvergenceVerdict::kConverges) return std::nullopt;
  return VariantFunction(space, std::move(bk.dist_));
}

StateSet compute_reachable_via(const StoreConfig& config,
                               const StateSpace& space,
                               const PredicateFn& start,
                               const std::vector<std::size_t>& actions,
                               const FaultSpanOptions& opts) {
  FrontierEngine engine(space, config);
  return engine.reachable(start, actions, opts);
}

StateSet compute_fault_span_via(const StoreConfig& config,
                                const StateSpace& space, const PredicateFn& S,
                                const std::vector<std::size_t>& fault_actions,
                                const FaultSpanOptions& opts) {
  std::vector<std::size_t> actions = non_fault_actions(space.program());
  actions.insert(actions.end(), fault_actions.begin(), fault_actions.end());
  return compute_reachable_via(config, space, S, actions, opts);
}

ToleranceReport verify_tolerance_via(const StoreConfig& config,
                                     const StateSpace& space,
                                     const Design& design) {
  ToleranceReport report;
  report.S_closed = check_closed_via(config, space, design.S()).closed;
  report.T_closed = check_closed_via(config, space, design.T()).closed;
  report.convergence =
      check_convergence_via(config, space, design.S(), design.T());
  return report;
}

}  // namespace nonmask::store
