#include "store/frontier.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "obs/metrics.hpp"
#include "obs/progress.hpp"
#include "obs/span.hpp"
#include "obs/telemetry.hpp"
#include "store/odometer.hpp"

namespace nonmask::store {

namespace {

std::size_t chunk_count(std::uint64_t range, std::uint64_t grain) {
  return static_cast<std::size_t>((range + grain - 1) / grain);
}

std::string spill_directory(const std::string& configured) {
  if (!configured.empty()) return configured;
  if (const char* env = std::getenv("TMPDIR"); env != nullptr && *env != '\0') {
    return env;
  }
  return "/tmp";
}

}  // namespace

SpillableFrontier::SpillableFrontier(std::uint64_t threshold,
                                     const std::string& dir)
    : threshold_(threshold), dir_(spill_directory(dir)) {}

SpillableFrontier::~SpillableFrontier() {
  if (fd_ >= 0) ::close(fd_);
}

void SpillableFrontier::flush_mem() {
  if (mem_.empty()) return;
  if (fd_ < 0) {
    std::string tmpl = dir_ + "/nonmask-frontier-XXXXXX";
    std::vector<char> path(tmpl.begin(), tmpl.end());
    path.push_back('\0');
    fd_ = ::mkstemp(path.data());
    if (fd_ < 0) {
      throw std::runtime_error(std::string("frontier spill: mkstemp in ") +
                               dir_ + " failed: " + std::strerror(errno));
    }
    ::unlink(path.data());  // anonymous: reclaimed on close even if we crash
  }
  const char* bytes = reinterpret_cast<const char*>(mem_.data());
  std::size_t remaining = mem_.size() * sizeof(std::uint64_t);
  std::uint64_t offset = spilled_ * sizeof(std::uint64_t);
  while (remaining > 0) {
    const ssize_t n =
        ::pwrite(fd_, bytes, remaining, static_cast<off_t>(offset));
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("frontier spill: pwrite failed: ") +
                               std::strerror(errno));
    }
    bytes += n;
    offset += static_cast<std::uint64_t>(n);
    remaining -= static_cast<std::size_t>(n);
  }
  if (obs::Telemetry::counting()) {
    auto& depth = obs::Telemetry::depth();
    depth.frontier_spill_flushes.fetch_add(1, std::memory_order_relaxed);
    depth.frontier_spill_bytes.fetch_add(mem_.size() * sizeof(std::uint64_t),
                                         std::memory_order_relaxed);
  }
  spilled_ += mem_.size();
  mem_.clear();
}

void SpillableFrontier::append(std::uint64_t code) {
  mem_.push_back(code);
  if (threshold_ != 0 && mem_.size() >= threshold_) flush_mem();
}

void SpillableFrontier::read(std::uint64_t lo, std::uint64_t hi,
                             std::vector<std::uint64_t>& out) const {
  out.clear();
  if (hi <= lo) return;
  out.resize(hi - lo);
  std::size_t filled = 0;
  if (lo < spilled_) {
    const std::uint64_t file_hi = std::min(hi, spilled_);
    char* bytes = reinterpret_cast<char*>(out.data());
    std::size_t remaining = (file_hi - lo) * sizeof(std::uint64_t);
    std::uint64_t offset = lo * sizeof(std::uint64_t);
    while (remaining > 0) {
      const ssize_t n =
          ::pread(fd_, bytes, remaining, static_cast<off_t>(offset));
      if (n < 0) {
        if (errno == EINTR) continue;
        throw std::runtime_error(std::string("frontier spill: pread failed: ") +
                                 std::strerror(errno));
      }
      if (n == 0) {
        throw std::runtime_error("frontier spill: unexpected EOF");
      }
      bytes += n;
      offset += static_cast<std::uint64_t>(n);
      remaining -= static_cast<std::size_t>(n);
    }
    filled = static_cast<std::size_t>(file_hi - lo);
  }
  for (std::uint64_t i = std::max(lo, spilled_); i < hi; ++i) {
    out[filled++] = mem_[static_cast<std::size_t>(i - spilled_)];
  }
}

void SpillableFrontier::clear() {
  mem_.clear();
  if (spilled_ > 0 && fd_ >= 0) ::ftruncate(fd_, 0);
  spilled_ = 0;
}

// A space of one scan chunk runs on the calling thread: its BFS levels are
// too small to pay for waking workers.
FrontierEngine::FrontierEngine(const StateSpace& space,
                               const StoreConfig& config)
    : space_(&space),
      config_(config),
      pool_(space.size() <= config.grain ? 1 : config.threads) {}

StateSet FrontierEngine::reachable(const PredicateFn& start,
                                   const std::vector<std::size_t>& actions,
                                   const FaultSpanOptions& opts) {
  obs::Span span("store.reach");
  stats_ = {};
  const StateSpace& space = *space_;
  const Program& p = space.program();
  StateSet set(space);
  const std::uint64_t cap =
      opts.max_states == 0 ? space.size() : opts.max_states;
  obs::ProgressMeter meter("store-reach", cap);

  const std::uint64_t spill = config_.spill_threshold;
  const std::string& dir = config_.spill_dir;
  std::vector<State> scratch(pool_.size(), State(p.num_variables()));

  // Seed scan: evaluate `start` over the full range with odometer cursors
  // (no per-code div/mod), then insert in code order — the serial seeding
  // sequence.
  auto frontier = std::make_unique<SpillableFrontier>(spill, dir);
  {
    std::vector<std::vector<std::uint64_t>> seed_chunks(
        chunk_count(space.size(), config_.grain));
    parallel_for_chunked(
        pool_, 0, space.size(), config_.grain,
        [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
            unsigned worker) {
          (void)worker;
          OdometerCursor cur(space, lo);
          auto& out = seed_chunks[chunk];
          for (std::uint64_t code = lo; code < hi; ++code) {
            if (start(cur.state())) out.push_back(code);
            if (code + 1 < hi) cur.advance();
          }
        });
    for (const auto& chunk : seed_chunks) {
      for (std::uint64_t code : chunk) {
        set.insert_code(code);
        frontier->append(code);
      }
    }
  }

  // Level-synchronous BFS with a merge in pop order: per-node successor
  // lists depend only on the node, and the serial merge replays the serial
  // BFS's insertion sequence and max_states truncation. Expansion
  // additionally drops successors that were already in `set` when the
  // level started — the merge would skip them anyway, so the result is
  // unchanged but the per-level buffers stay proportional to the *new*
  // states, not the total degree.
  struct NodeSuccs {
    std::vector<std::uint32_t> degree;  // kept successors per node
    std::vector<std::uint64_t> data;    // concatenated, in expansion order
  };
  while (frontier->size() != 0 && set.size() < cap) {
    const std::uint64_t fsize = frontier->size();
    ++stats_.levels;
    if (obs::Telemetry::counting()) {
      obs::Telemetry::depth().frontier_levels.fetch_add(
          1, std::memory_order_relaxed);
    }
    if (frontier->spilled()) ++stats_.spills;
    const std::uint64_t level_grain = std::min<std::uint64_t>(
        config_.grain,
        std::max<std::uint64_t>(
            1, fsize / (std::uint64_t{pool_.size()} * 8)));
    std::vector<NodeSuccs> level(chunk_count(fsize, level_grain));
    parallel_for_chunked(
        pool_, 0, fsize, level_grain,
        [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
            unsigned worker) {
          obs::Span chunk_span("store.reach.chunk");
          NodeSuccs& out = level[chunk];
          std::vector<std::uint64_t> codes;
          frontier->read(lo, hi, codes);
          std::vector<std::uint64_t> succs;
          for (std::uint64_t code : codes) {
            detail::expand_reachable(space, actions, opts, code,
                                     scratch[worker], succs);
            std::uint32_t kept = 0;
            for (std::uint64_t succ : succs) {
              if (set.contains_code(succ)) continue;  // pre-filter (see above)
              out.data.push_back(succ);
              ++kept;
            }
            out.degree.push_back(kept);
          }
        });

    auto next = std::make_unique<SpillableFrontier>(spill, dir);
    bool capped = false;
    for (const NodeSuccs& chunk : level) {
      std::size_t offset = 0;
      for (std::uint32_t deg : chunk.degree) {
        if (set.size() >= cap) {  // the serial loop stops popping here
          capped = true;
          break;
        }
        ++stats_.expanded;
        for (std::uint32_t k = 0; k < deg; ++k) {
          const std::uint64_t succ = chunk.data[offset + k];
          if (!set.contains_code(succ)) {
            set.insert_code(succ);
            next->append(succ);
          }
        }
        offset += deg;
      }
      if (capped) break;
    }
    if (capped) break;
    frontier = std::move(next);
    meter.aux("frontier", frontier->size());
    meter.add(set.size() - meter.done());
  }

  if (obs::Metrics::enabled()) {
    auto& registry = obs::Registry::instance();
    registry.counter("store.reach.expanded").add(stats_.expanded);
    registry.counter("store.reach.states").add(set.size());
    registry.counter("store.reach.spilled_levels").add(stats_.spills);
  }
  return set;
}

std::uint64_t FrontierEngine::backward_distances(
    const PredicateFn& target, const std::vector<std::size_t>& actions,
    StampedDistanceArray& dist, std::uint32_t max_rounds) {
  obs::Span span("store.backward");
  stats_ = {};
  const StateSpace& space = *space_;
  const Program& p = space.program();
  dist.next_generation();
  obs::ProgressMeter meter("store-backward", space.size());

  // Round r resolves every code whose first known successor appeared in
  // round r-1, i.e. whose min successor distance is exactly r-1 — so the
  // round number is the min-steps-to-target distance. Commits are deferred
  // to a serial phase per round, so the parallel scan only ever reads
  // distances from completed rounds (deterministic and race-free).
  std::uint64_t resolved = 0;
  std::uint32_t round = 0;
  while (max_rounds == 0 || round <= max_rounds) {
    std::vector<std::vector<std::uint64_t>> hits(
        chunk_count(space.size(), config_.grain));
    parallel_for_chunked(
        pool_, 0, space.size(), config_.grain,
        [&](std::size_t chunk, std::uint64_t lo, std::uint64_t hi,
            unsigned worker) {
          (void)worker;
          OdometerCursor cur(space, lo);
          auto& out = hits[chunk];
          for (std::uint64_t code = lo; code < hi; ++code) {
            if (round == 0) {
              if (target(cur.state())) out.push_back(code);
            } else if (!dist.known(code)) {
              const State& s = cur.state();
              for (std::size_t idx : actions) {
                const Action& a = p.action(idx);
                if (!a.enabled(s)) continue;
                if (dist.known(space.encode(a.apply(s)))) {
                  out.push_back(code);
                  break;
                }
              }
            }
            if (code + 1 < hi) cur.advance();
          }
        });

    std::uint64_t new_this_round = 0;
    for (const auto& chunk : hits) {
      for (std::uint64_t code : chunk) {
        dist.set(code, round);
        ++new_this_round;
      }
    }
    resolved += new_this_round;
    meter.add(new_this_round);
    if (obs::Telemetry::counting()) {
      obs::Telemetry::depth().frontier_merge_rounds.fetch_add(
          1, std::memory_order_relaxed);
    }
    if (new_this_round == 0) break;
    ++stats_.levels;
    stats_.expanded += new_this_round;
    ++round;
  }

  if (obs::Metrics::enabled()) {
    auto& registry = obs::Registry::instance();
    registry.counter("store.backward.rounds").add(stats_.levels);
    registry.counter("store.backward.resolved").add(resolved);
  }
  return resolved;
}

}  // namespace nonmask::store
