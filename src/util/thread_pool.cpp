#include "util/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <exception>
#include <memory>

#include "obs/obs.hpp"

namespace scapegoat {

namespace {

// Set while a thread is executing inside ThreadPool::worker_loop; used to
// run nested parallel_for calls inline instead of deadlocking on the queue.
thread_local const ThreadPool* t_worker_pool = nullptr;

}  // namespace

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) {
    threads = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  }
  workers_.reserve(threads);
  for (std::size_t i = 0; i < threads; ++i)
    workers_.emplace_back([this] { worker_loop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

bool ThreadPool::on_worker_thread() const { return t_worker_pool == this; }

void ThreadPool::enqueue(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    assert(!stopping_ && "enqueue on a stopping pool");
    queue_.push_back(std::move(task));
    // "pool." metrics are scheduling-dependent — outside the determinism
    // contract (see obs/obs.hpp).
    obs::gauge_max("pool.queue_depth_max",
                   static_cast<std::int64_t>(queue_.size()));
  }
  obs::count("pool.tasks_enqueued");
  cv_.notify_one();
}

void ThreadPool::worker_loop() {
  t_worker_pool = this;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      // Drain-on-destroy: only exit once the queue is empty.
      if (queue_.empty()) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    // No metrics after task(): once a task has signalled completion, its
    // waiter may return and free the registry it installed.
    task();
  }
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (begin >= end) return;
  if (grain == 0) grain = 1;
  const std::size_t n = end - begin;
  const std::size_t chunks = (n + grain - 1) / grain;
  if (size() <= 1 || chunks <= 1 || on_worker_thread()) {
    obs::count("pool.parallel_for.inline_runs");
    body(begin, end);
    return;
  }
  obs::count("pool.parallel_for.calls");
  obs::count("pool.parallel_for.chunks", chunks);

  // Shared chunk cursor: workers and the caller race to claim chunk indices.
  // Which thread runs a chunk is nondeterministic; the chunk boundaries —
  // and therefore the work each body call sees — are not.
  struct ForState {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> failed{false};
    std::exception_ptr error;
    std::mutex error_mutex;
    std::mutex done_mutex;
    std::condition_variable done_cv;
  };
  auto state = std::make_shared<ForState>();

  auto run_chunks = [state, begin, end, grain, chunks, &body] {
    for (;;) {
      const std::size_t c = state->next.fetch_add(1);
      if (c >= chunks) return;
      if (!state->failed.load()) {
        const std::size_t lo = begin + c * grain;
        const std::size_t hi = std::min(end, lo + grain);
        try {
          body(lo, hi);
        } catch (...) {
          std::lock_guard<std::mutex> lock(state->error_mutex);
          if (!state->error) state->error = std::current_exception();
          state->failed.store(true);
        }
      }
      const std::size_t finished = state->done.fetch_add(1) + 1;
      if (finished == chunks) {
        std::lock_guard<std::mutex> lock(state->done_mutex);
        state->done_cv.notify_all();
      }
    }
  };

  // One helper task per worker beyond the caller, capped by the chunk count.
  const std::size_t helpers = std::min(size(), chunks - 1);
  for (std::size_t i = 0; i < helpers; ++i) enqueue(run_chunks);
  run_chunks();

  std::unique_lock<std::mutex> lock(state->done_mutex);
  state->done_cv.wait(lock,
                      [&] { return state->done.load() == chunks; });
  if (state->error) std::rethrow_exception(state->error);
}

namespace {

std::mutex g_global_mutex;
std::unique_ptr<ThreadPool> g_global_pool;
std::size_t g_global_threads = 0;  // 0 = hardware concurrency

}  // namespace

ThreadPool& ThreadPool::global() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (!g_global_pool)
    g_global_pool = std::make_unique<ThreadPool>(g_global_threads);
  return *g_global_pool;
}

void ThreadPool::set_global_threads(std::size_t threads) {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  g_global_threads = threads;
  g_global_pool.reset();  // drains; recreated lazily at the new size
}

std::size_t ThreadPool::global_threads() {
  std::lock_guard<std::mutex> lock(g_global_mutex);
  if (g_global_pool) return g_global_pool->size();
  return g_global_threads == 0
             ? std::max<std::size_t>(1, std::thread::hardware_concurrency())
             : g_global_threads;
}

}  // namespace scapegoat
