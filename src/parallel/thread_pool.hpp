// Fixed-size thread pool and the chunked parallel-for primitive the
// parallel verification subsystem is built on.
//
// Determinism contract: parallel_for_chunked splits [begin, end) into
// chunks of `grain` consecutive indices, numbered 0, 1, ... in range
// order. Which worker executes a chunk (and when) is nondeterministic, but
// callers index their result slots by *chunk number*, so any reduction
// performed in chunk order is independent of the thread count and of
// scheduling. All determinism guarantees in the checker engine
// (store/facade.hpp) and parallel/campaign.hpp rest on this.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace nonmask {

/// Worker count used when a pool or sweep is asked for "auto" (0) threads:
/// the NONMASK_THREADS environment variable when set to an integer >= 1,
/// else std::thread::hardware_concurrency(), else 1.
unsigned default_threads();

/// A fixed set of worker threads consuming a shared task queue. Workers are
/// spawned by the first submit() and joined in the destructor (which waits
/// for every submitted task to finish), so a pool whose work all runs
/// inline — one worker, or a single chunk — never starts a thread.
class ThreadPool {
 public:
  /// `threads` == 0 means default_threads().
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Worker count (spawned or not yet).
  unsigned size() const noexcept { return threads_; }

  /// Enqueue a task. The task receives the executing worker's index in
  /// [0, size()) — use it to index per-worker scratch buffers.
  void submit(std::function<void(unsigned worker)> task);

  /// Block until the queue is empty and every running task has finished.
  /// Establishes happens-before with all completed tasks, so their writes
  /// are visible to the caller afterwards.
  void wait_idle();

 private:
  void worker_loop(unsigned worker);

  unsigned threads_;
  std::vector<std::thread> workers_;
  std::deque<std::function<void(unsigned)>> queue_;
  std::mutex mutex_;
  std::condition_variable work_available_;
  std::condition_variable idle_;
  std::size_t in_flight_ = 0;
  bool stop_ = false;
};

/// Run `fn(chunk, lo, hi, worker)` over every chunk [lo, hi) of
/// [begin, end) with at most `grain` indices per chunk. Chunks are numbered
/// 0, 1, ... in range order. Blocks until every chunk has run; rethrows the
/// exception of the lowest-numbered chunk that raised one (remaining chunks
/// still run), the one an in-order run would have raised first. With a
/// single-worker pool or a single chunk the chunks run inline in the
/// calling thread, in order, with worker == 0 — byte-identical behavior,
/// no synchronization.
void parallel_for_chunked(
    ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
    std::uint64_t grain,
    const std::function<void(std::size_t chunk, std::uint64_t lo,
                             std::uint64_t hi, unsigned worker)>& fn);

/// Run `fn(index, worker)` for every index in [0, count) — the grain-1
/// special case of parallel_for_chunked, for heterogeneous work items
/// (e.g. synthesis candidate evaluations) where per-index cost varies too
/// much for fixed chunking to balance. Same determinism contract: callers
/// key results by index; completion order is irrelevant.
void parallel_for_each(
    ThreadPool& pool, std::size_t count,
    const std::function<void(std::size_t index, unsigned worker)>& fn);

}  // namespace nonmask
