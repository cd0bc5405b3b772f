// Fixed-size worker thread pool with a grain-controlled parallel_for — the
// substrate behind the parallel Monte-Carlo trial
// engine (core/checkpoint_runner.hpp). Trials are the only parallel level:
// nothing below a trial (linalg, LP, probe simulation) dispatches here.
//
// Design rules that keep every caller bit-reproducible:
//   * parallel_for hands each index range to exactly one task, so any
//     computation whose chunks are independent produces the same bits at any
//     thread count. Chunk boundaries depend only on the grain, never on the
//     number of workers.
//   * Workers never nest: a parallel_for issued from inside a pool worker
//     runs inline on that worker (serially), which both avoids deadlock and
//     keeps per-trial work on a single deterministic thread.
//   * The calling thread participates in parallel_for (caller-runs), so a
//     1-worker pool degrades to plain serial execution with no handoff.
//
// Destruction drains the queue: tasks already queued run to completion
// before the workers join. An exception thrown by a parallel_for body is
// captured and rethrown to parallel_for's caller.

#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace scapegoat {

class ThreadPool {
 public:
  // `threads` = 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ThreadPool(std::size_t threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  std::size_t size() const { return workers_.size(); }

  // True when called from one of this pool's worker threads.
  bool on_worker_thread() const;

  // Split [begin, end) into chunks of at most `grain` indices and run
  // `body(chunk_begin, chunk_end)` across the pool, caller included. Chunk
  // boundaries are a pure function of (begin, end, grain) — results of
  // chunk-independent bodies do not depend on the worker count. Rethrows the
  // first task exception after all chunks finish. Runs inline (serially)
  // when the pool has one worker, the range fits in one chunk, or the caller
  // is itself a pool worker.
  void parallel_for(std::size_t begin, std::size_t end, std::size_t grain,
                    const std::function<void(std::size_t, std::size_t)>& body);

  // ------------------------------------------------------------- global --
  // Process-wide pool the trial engine runs on when its ExecutionPolicy
  // does not ask for a dedicated one (threads == 0). Created lazily with the
  // configured thread count (default: hardware concurrency).

  static ThreadPool& global();

  // Replace the global pool with one of `threads` workers (0 = hardware).
  // Call from a single thread, before or between parallel regions — the old
  // pool drains first.
  static void set_global_threads(std::size_t threads);

  // Worker count the global pool has (or would be created with).
  static std::size_t global_threads();

 private:
  void enqueue(std::function<void()> task);
  void worker_loop();

  mutable std::mutex mutex_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  std::vector<std::thread> workers_;
  bool stopping_ = false;
};

}  // namespace scapegoat
