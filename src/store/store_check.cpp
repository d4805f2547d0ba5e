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
/// serial oracle's flag pass. `S_codes`, when given, receives the number of
/// codes where S holds, whether or not T does.
TwoBitArray evaluate_flags_store(ThreadPool& pool, const StateSpace& space,
                                 const PredicateFn& S, const PredicateFn& T,
                                 std::uint64_t grain, ConvergenceReport& report,
                                 std::uint64_t* S_codes = nullptr) {
  obs::Span span("store.flags");
  obs::ProgressMeter meter("flags", space.size());
  TwoBitArray flags(space.size());
  struct Counts {
    std::uint64_t in_S = 0;
    std::uint64_t in_T = 0;
    std::uint64_t S_any = 0;  ///< S codes, in T or not
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
            ++c.S_any;
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
    if (S_codes != nullptr) *S_codes += c.S_any;
  }
  return flags;
}

/// Closure-of-T evidence gathered while T codes are expanded: how many T
/// codes had their successors generated, how many enabled transitions
/// those have (duplicates included, as a closure scan counts them), and
/// whether any successor lies outside T. Once every T code has been
/// expanded exactly once and none escaped, `states` and `transitions` are
/// the closure-of-T scan's counts.
struct TTally {
  std::uint64_t states = 0;
  std::uint64_t transitions = 0;
  bool escaped = false;

  /// Tally `code`, if it is a T code, with `enabled` enabled actions and
  /// successor codes `succs`.
  void expand(const TwoBitArray& flags, std::uint64_t code,
              std::size_t enabled, const std::vector<std::uint64_t>& succs) {
    if ((flags[code] & detail::kFlagT) == 0) return;
    ++states;
    transitions += enabled;
    for (std::uint64_t next : succs) {
      if ((flags[next] & detail::kFlagT) == 0) escaped = true;
    }
  }

  void add(const TTally& other) {
    states += other.states;
    transitions += other.transitions;
    escaped = escaped || other.escaped;
  }
};

/// Thrown by the u16 bookkeeping when a convergence distance exceeds its
/// width; the caller restarts the identical traversal with u32 distances.
struct DistanceOverflow {};

template <typename DistT>
struct CompactDfsBookkeeping {
  explicit CompactDfsBookkeeping(std::uint64_t size)
      : color_(size), dist_(size, 0) {}

  std::uint8_t color(std::uint64_t code) const { return color_[code]; }
  void set_color(std::uint64_t code, std::uint8_t c) {
    if (c == 1) ++pushed_;
    color_.set(code, c);
  }
  std::uint32_t dist(std::uint64_t code) const { return dist_[code]; }
  void set_dist(std::uint64_t code, std::uint32_t d) {
    if (d > std::numeric_limits<DistT>::max()) throw DistanceOverflow{};
    dist_[code] = static_cast<DistT>(d);
  }

  TwoBitArray color_;
  std::vector<DistT> dist_;
  std::uint64_t pushed_ = 0;  ///< states pushed onto the DFS path so far
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
/// end offsets, so nothing is merged afterwards. Every ¬S code is expanded
/// whether or not the traversal reaches it, so the closure-of-T tally over
/// the ¬S T codes is complete even when the traversal stops early.
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
    std::vector<TTally> tallies(lists_.size());
    parallel_for_chunked(
        pool, 0, space.size(), grain,
        [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
            unsigned worker) {
          obs::Span chunk_span("store.prefetch.chunk");
          std::vector<std::uint32_t>& list = lists_[chunk];
          std::vector<std::uint64_t> succs;
          TTally tally;
          for (std::uint64_t code = lo; code < hi; ++code) {
            if ((flags[code] & detail::kFlagS) == 0) {  // S is never expanded
              const std::size_t enabled =
                  sources[worker].successors(code, succs);
              tally.expand(flags, code, enabled, succs);
              for (std::uint64_t next : succs) {
                list.push_back(static_cast<std::uint32_t>(next));
              }
            }
            ends_[code] = static_cast<std::uint32_t>(list.size());
          }
          tallies[chunk] = tally;
        });
    for (const TTally& t : tallies) tally_.add(t);
  }

  void successors(std::uint64_t code, std::vector<std::uint64_t>& out) const {
    const std::uint32_t* list = lists_[code / grain_].data();
    const std::uint32_t begin = code % grain_ == 0 ? 0 : ends_[code - 1];
    out.assign(list + begin, list + ends_[code]);
  }

  /// The tally over every ¬S T code.
  const TTally& tally() const { return tally_; }
  /// The lists, and so the tally, do not depend on the traversal.
  void restart() {}

 private:
  std::uint64_t grain_;
  std::vector<std::uint32_t> ends_;  ///< end of each code's list in its chunk
  std::vector<std::vector<std::uint32_t>> lists_;  ///< one per chunk
  TTally tally_;
};

/// ProgramSuccessors generating each list when the traversal asks for it,
/// tallying closure of T over the T codes the traversal expands.
class TallyingSuccessors {
 public:
  TallyingSuccessors(const StateSpace& space,
                     const std::vector<std::size_t>& actions,
                     const TwoBitArray& flags)
      : source_(space, actions), flags_(&flags) {}

  std::size_t successors(std::uint64_t code, std::vector<std::uint64_t>& out) {
    const std::size_t enabled = source_.successors(code, out);
    tally_.expand(*flags_, code, enabled, out);
    return enabled;
  }

  /// The tally over the T codes expanded since construction or restart().
  const TTally& tally() const { return tally_; }
  /// Forget the tally: the traversal starts over and expands its states
  /// again.
  void restart() { tally_ = {}; }

 private:
  ProgramSuccessors source_;
  const TwoBitArray* flags_;
  TTally tally_;
};

/// Runs `traverse(successors)` over the source the pass should read:
/// prefetched lists when the pool has more than one worker, the space spans
/// more than one chunk, and it fits kPrefetchMaxCodes (and a chunk's lists
/// fit their u32 offsets); else TallyingSuccessors generating each list
/// when the traversal asks for it. Both sources offer tally() and
/// restart().
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
  TallyingSuccessors succ(space, actions, flags);
  return traverse(succ);
}

/// The unfair DFS, first with 16-bit distances (~2.5 bytes/state total).
/// Convergence spans beyond 65535 steps are possible in principle, so on
/// overflow the identical traversal restarts from `report` with 32-bit
/// distances: flags and successor lists are reused, the bookkeeping and the
/// source's tally start fresh, and the states the first attempt pushed are
/// not counted as explored again.
template <class Successors>
ConvergenceReport unfair_traversal(const StateSpace& space,
                                   const TwoBitArray& flags, Successors& succ,
                                   const ConvergenceReport& report) {
  std::uint64_t counted = 0;
  {
    CompactDfsBookkeeping<std::uint16_t> bk(space.size());
    try {
      return detail::check_convergence_core_impl(space, flags, succ, report,
                                                 bk);
    } catch (const DistanceOverflow&) {
      counted = bk.pushed_;
    }
  }
  succ.restart();
  CompactDfsBookkeeping<std::uint32_t> bk(space.size());
  return detail::check_convergence_core_impl(space, flags, succ, report, bk,
                                             counted);
}

template <class Successors>
ConvergenceReport weakly_fair_traversal(const StateSpace& space,
                                        const TwoBitArray& flags,
                                        Successors& succ,
                                        const std::vector<std::size_t>& actions,
                                        const ConvergenceReport& report) {
  CompactTarjanBookkeeping bk(space.size());
  return detail::check_convergence_weakly_fair_core_impl(space, flags, succ,
                                                         actions, report, bk);
}

/// One chunk of the S sweep: closure of S up to the chunk's first
/// violation, with the counts the closure scan has at that point, and the
/// closure-of-T tally over the chunk's S ∧ T codes.
struct SweepChunk {
  ClosureReport closure_S;  ///< closed = no violation in the chunk
  TTally tally;
  std::uint64_t expanded = 0;  ///< S codes whose successors were generated
};

/// Expands the S codes of [begin, end) in code order, reading each
/// successor's flags instead of evaluating S or T on it. The closure-of-S
/// statements are the closure scan's, in its order: the same counts up to
/// the first violation and the same (state, action, successor) triple.
/// Past that violation only S ∧ T codes are expanded, for the tally; once T
/// has escaped too, nothing is left to learn and the chunk stops.
SweepChunk sweep_S_range(const StateSpace& space, const TwoBitArray& flags,
                         const std::vector<std::size_t>& actions,
                         std::uint64_t begin, std::uint64_t end) {
  const Program& p = space.program();
  SweepChunk c;
  c.closure_S.closed = true;
  OdometerCursor cur(space, begin);
  State next(p.num_variables());
  for (std::uint64_t code = begin; code < end; ++code) {
    const std::uint8_t f = flags[code];
    const bool in_T = (f & detail::kFlagT) != 0;
    bool check_S = c.closure_S.closed;
    if ((f & detail::kFlagS) != 0 && (check_S || in_T)) {
      const State& s = cur.state();
      ++c.expanded;
      if (check_S) ++c.closure_S.states_checked;
      if (in_T) ++c.tally.states;
      for (std::size_t idx : actions) {
        const Action& a = p.action(idx);
        if (!a.enabled(s)) continue;
        a.apply_into(s, next);
        const std::uint8_t nf = flags[space.encode(next)];
        if (in_T) {
          ++c.tally.transitions;
          if ((nf & detail::kFlagT) == 0) c.tally.escaped = true;
        }
        if (check_S) {
          ++c.closure_S.transitions_checked;
          if ((nf & detail::kFlagS) == 0) {
            c.closure_S.closed = false;
            c.closure_S.violation = ClosureViolation{s, idx, next};
            check_S = false;
          }
        }
      }
      if (!c.closure_S.closed && c.tally.escaped) break;
    }
    if (code + 1 < end) cur.advance();
  }
  return c;
}

/// The S sweep, chunk-parallel, with an in-order reduction that replays the
/// closure scan's early exit. Adds the tally over the S ∧ T codes to
/// `tally`.
ClosureReport sweep_S(ThreadPool& pool, const StateSpace& space,
                      const TwoBitArray& flags,
                      const std::vector<std::size_t>& actions,
                      std::uint64_t grain, std::uint64_t S_codes,
                      TTally& tally) {
  obs::Span span("store.sweep_S");
  obs::ProgressMeter meter("closure", S_codes, obs::explored_states());
  std::vector<SweepChunk> chunks(chunk_count(space.size(), grain));
  parallel_for_chunked(
      pool, 0, space.size(), grain,
      [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
          unsigned worker) {
        (void)worker;
        obs::Span chunk_span("store.sweep_S.chunk");
        chunks[chunk] = sweep_S_range(space, flags, actions, lo, hi);
        meter.add(chunks[chunk].expanded);
      });

  ClosureReport report;
  report.closed = true;
  for (SweepChunk& c : chunks) {
    tally.add(c.tally);
    if (!report.closed) continue;
    report.states_checked += c.closure_S.states_checked;
    report.transitions_checked += c.closure_S.transitions_checked;
    if (!c.closure_S.closed) {
      report.closed = false;
      report.violation = std::move(c.closure_S.violation);
    }
  }
  detail::record_closure_metrics(report);
  return report;
}

/// Tarjan visit ids are u32, with 0xFFFFFFFF reserved.
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
  return with_successors(pool, space, flags,
                         non_fault_actions(space.program()), grain,
                         [&](auto& succ) {
                           return unfair_traversal(space, flags, succ, report);
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
        return weakly_fair_traversal(space, flags, succ, actions, report);
      });
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
                                     const Design& design, bool weakly_fair) {
  obs::Span span("store.tolerance");
  if (weakly_fair) require_u32_ids(space);
  ThreadPool pool(config.threads);
  const std::uint64_t grain = aligned_grain(config);
  const std::vector<std::size_t> actions = non_fault_actions(space.program());
  const PredicateFn S = design.S();
  const PredicateFn T = design.T();
  ToleranceReport report;

  // S and T are evaluated here once per code. Every later step reads the
  // flags of encoded codes; only the closure-of-T fallback below evaluates
  // T again.
  std::uint64_t S_codes = 0;
  const TwoBitArray flags = evaluate_flags_store(
      pool, space, S, T, grain, report.convergence, &S_codes);
  TTally tally;
  report.closure_S = sweep_S(pool, space, flags, actions, grain, S_codes,
                             tally);
  report.convergence = with_successors(
      pool, space, flags, actions, grain, [&](auto& succ) {
        ConvergenceReport r =
            weakly_fair ? weakly_fair_traversal(space, flags, succ, actions,
                                                report.convergence)
                        : unfair_traversal(space, flags, succ,
                                           report.convergence);
        tally.add(succ.tally());
        return r;
      });

  // The tally is the closure-of-T scan's report when it covers every T
  // code and no successor left T. Otherwise T is not closed, or the
  // traversal stopped before expanding every T ∧ ¬S code, and the scan
  // finds the violation (or confirms closure) itself.
  if (!tally.escaped && tally.states == report.convergence.states_in_T) {
    report.closure_T.closed = true;
    report.closure_T.states_checked = tally.states;
    report.closure_T.transitions_checked = tally.transitions;
    detail::record_closure_metrics(report.closure_T);
  } else {
    report.closure_T = check_closed_via(config, space, T, actions);
  }
  return report;
}

}  // namespace nonmask::store
