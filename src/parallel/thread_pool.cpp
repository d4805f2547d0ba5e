#include "parallel/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <limits>
#include <memory>

#include "obs/telemetry.hpp"

namespace nonmask {

unsigned default_threads() {
  if (const char* env = std::getenv("NONMASK_THREADS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed >= 1) return static_cast<unsigned>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw >= 1 ? hw : 1;
}

ThreadPool::ThreadPool(unsigned threads)
    : threads_(threads == 0 ? default_threads() : threads) {}

ThreadPool::~ThreadPool() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
    stop_ = true;
  }
  work_available_.notify_all();
  for (auto& w : workers_) w.join();
  obs::workers_live().add(-static_cast<double>(workers_.size()));
}

void ThreadPool::submit(std::function<void(unsigned)> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (workers_.empty()) {
      workers_.reserve(threads_);
      for (unsigned i = 0; i < threads_; ++i) {
        workers_.emplace_back([this, i] { worker_loop(i); });
      }
      // Unconditional (one RMW per pool lifetime) so a telemetry sampler
      // started mid-run sees a consistent live-worker count.
      obs::workers_live().add(threads_);
    }
    queue_.push_back(std::move(task));
  }
  work_available_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

void ThreadPool::worker_loop(unsigned worker) {
  while (true) {
    std::function<void(unsigned)> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_available_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to do
      task = std::move(queue_.front());
      queue_.pop_front();
      ++in_flight_;
    }
    task(worker);
    // Destroy the task's captures before it counts as done: a caller
    // released by wait_idle may tear down what they reference (in
    // parallel_for_chunked, the last owner of the rethrown exception).
    task = nullptr;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --in_flight_;
    }
    idle_.notify_all();
  }
}

void parallel_for_chunked(
    ThreadPool& pool, std::uint64_t begin, std::uint64_t end,
    std::uint64_t grain,
    const std::function<void(std::size_t chunk, std::uint64_t lo,
                             std::uint64_t hi, unsigned worker)>& fn) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::uint64_t span = end - begin;
  const std::size_t n_chunks = static_cast<std::size_t>((span + grain - 1) / grain);

  auto run_chunk = [&](std::size_t chunk, unsigned worker) {
    const std::uint64_t lo = begin + static_cast<std::uint64_t>(chunk) * grain;
    const std::uint64_t hi = std::min(end, lo + grain);
    fn(chunk, lo, hi, worker);
  };

  if (pool.size() <= 1 || n_chunks == 1) {
    for (std::size_t chunk = 0; chunk < n_chunks; ++chunk) {
      run_chunk(chunk, 0);
    }
    return;
  }

  // One driver task per worker; drivers race on an atomic cursor, so fast
  // workers take more chunks (dynamic load balancing) while results remain
  // keyed by chunk number.
  auto next = std::make_shared<std::atomic<std::size_t>>(0);
  // The exception of the lowest-numbered chunk that raised one, so which
  // error surfaces does not depend on scheduling.
  struct FirstError {
    std::mutex mutex;
    std::size_t chunk = std::numeric_limits<std::size_t>::max();
    std::exception_ptr error;
  };
  auto first_error = std::make_shared<FirstError>();
  const unsigned drivers = static_cast<unsigned>(
      std::min<std::size_t>(pool.size(), n_chunks));
  for (unsigned d = 0; d < drivers; ++d) {
    pool.submit([&run_chunk, next, first_error, n_chunks](unsigned worker) {
      for (std::size_t chunk = (*next)++; chunk < n_chunks;
           chunk = (*next)++) {
        try {
          run_chunk(chunk, worker);
        } catch (...) {
          std::lock_guard<std::mutex> lock(first_error->mutex);
          if (chunk < first_error->chunk) {
            first_error->chunk = chunk;
            first_error->error = std::current_exception();
          }
        }
      }
    });
  }
  pool.wait_idle();
  if (first_error->error) std::rethrow_exception(first_error->error);
}

void parallel_for_each(
    ThreadPool& pool, std::size_t count,
    const std::function<void(std::size_t index, unsigned worker)>& fn) {
  parallel_for_chunked(
      pool, 0, static_cast<std::uint64_t>(count), 1,
      [&fn](std::size_t chunk, std::uint64_t, std::uint64_t,
            unsigned worker) { fn(chunk, worker); });
}

}  // namespace nonmask
