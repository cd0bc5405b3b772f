// Unit tests for util/thread_pool: exception propagation out of workers,
// parallel_for index coverage (every index exactly once, any grain),
// nested/inline execution, drain-on-destroy with queued work, and workers
// leaving an installed metrics registry alone once the work that used it
// has returned.

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace scapegoat {
namespace {

// Runs `probe` on one of `pool`'s worker threads through parallel_for and
// returns its answer. Of the two one-index chunks, one the caller claims
// waits until a worker has started the other.
bool on_a_worker(ThreadPool& pool, const std::function<bool()>& probe) {
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> started{false};
  bool answer = false;
  pool.parallel_for(0, 2, 1, [&](std::size_t, std::size_t) {
    if (std::this_thread::get_id() != caller) {
      if (!started.exchange(true)) answer = probe();
      return;
    }
    const auto give_up =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (!started.load() && std::chrono::steady_clock::now() < give_up)
      std::this_thread::yield();
  });
  EXPECT_TRUE(started.load()) << "no worker ran a chunk";
  return answer;
}

TEST(ThreadPool, WorkerExceptionReachesTheCaller) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2u);
  EXPECT_THROW(on_a_worker(pool,
                           []() -> bool {
                             throw std::runtime_error("worker boom");
                           }),
               std::runtime_error);
  // The pool stays usable after a task threw.
  EXPECT_TRUE(on_a_worker(pool, [] { return true; }));
}

TEST(ThreadPool, ParallelForPropagatesBodyException) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 3,
                        [](std::size_t lo, std::size_t) {
                          if (lo >= 30) throw std::logic_error("chunk boom");
                        }),
      std::logic_error);
  // Still usable afterwards.
  std::atomic<std::size_t> count{0};
  pool.parallel_for(0, 10, 1,
                    [&](std::size_t lo, std::size_t hi) { count += hi - lo; });
  EXPECT_EQ(count.load(), 10u);
}

TEST(ThreadPool, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  for (std::size_t grain : {std::size_t{1}, std::size_t{3}, std::size_t{7},
                            std::size_t{64}, std::size_t{1000}}) {
    constexpr std::size_t kBegin = 5, kEnd = 777;
    std::vector<std::atomic<int>> hits(kEnd);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(kBegin, kEnd, grain,
                      [&](std::size_t lo, std::size_t hi) {
                        ASSERT_LE(lo, hi);
                        for (std::size_t i = lo; i < hi; ++i) ++hits[i];
                      });
    for (std::size_t i = 0; i < kEnd; ++i)
      EXPECT_EQ(hits[i].load(), i >= kBegin ? 1 : 0) << "index " << i
                                                     << " grain " << grain;
  }
}

TEST(ThreadPool, ParallelForEmptyAndSingleIndexRanges) {
  ThreadPool pool(3);
  std::atomic<std::size_t> count{0};
  pool.parallel_for(10, 10, 4,
                    [&](std::size_t lo, std::size_t hi) { count += hi - lo; });
  EXPECT_EQ(count.load(), 0u);
  pool.parallel_for(10, 11, 4, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(lo, 10u);
    EXPECT_EQ(hi, 11u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1u);
  // grain 0 is treated as 1.
  std::atomic<std::size_t> calls{0};
  pool.parallel_for(0, 5, 0, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(hi - lo, 1u);
    ++calls;
  });
  EXPECT_EQ(calls.load(), 5u);
}

TEST(ThreadPool, SingleWorkerPoolRunsInline) {
  ThreadPool pool(1);
  const auto caller = std::this_thread::get_id();
  std::atomic<std::size_t> sum{0};
  pool.parallel_for(0, 100, 8, [&](std::size_t lo, std::size_t hi) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    for (std::size_t i = lo; i < hi; ++i) sum += i;
  });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(64);
  for (auto& h : hits) h.store(0);
  pool.parallel_for(0, 8, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t outer = lo; outer < hi; ++outer) {
      // Nested call from a worker thread must execute inline (serially).
      pool.parallel_for(outer * 8, (outer + 1) * 8, 2,
                        [&](std::size_t lo2, std::size_t hi2) {
                          for (std::size_t i = lo2; i < hi2; ++i) ++hits[i];
                        });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, OnWorkerThreadIsScopedToThePool) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  EXPECT_TRUE(on_a_worker(pool, [&pool] { return pool.on_worker_thread(); }));
  ThreadPool other(2);
  EXPECT_FALSE(
      on_a_worker(other, [&pool] { return pool.on_worker_thread(); }));
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  // parallel_for returns once every chunk is done, but a helper task that
  // found no chunk left may still be queued; the destructor runs it before
  // the workers join.
  std::atomic<int> ran{0};
  for (int round = 0; round < 50; ++round) {
    ThreadPool pool(4);
    pool.parallel_for(0, 8, 1, [&ran](std::size_t lo, std::size_t hi) {
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      ran += static_cast<int>(hi - lo);
    });
  }
  EXPECT_EQ(ran.load(), 50 * 8);
}

TEST(ThreadPool, RegistryMayBeFreedOnceParallelForReturns) {
  // A helper task can still be finishing on its worker when the caller's
  // parallel_for returns. Whatever the worker does after the last chunk
  // must not touch the registry, which the caller frees right away.
  ThreadPool pool(4);
  for (int round = 0; round < 500; ++round) {
    std::atomic<std::size_t> covered{0};
    {
      obs::MetricsRegistry registry;
      obs::ScopedInstrumentation scope(registry);
      pool.parallel_for(0, 64, 1, [&covered](std::size_t lo, std::size_t hi) {
        covered += hi - lo;
      });
    }
    ASSERT_EQ(covered.load(), 64u);
  }
}

TEST(ThreadPool, GlobalPoolResizes) {
  ThreadPool::set_global_threads(3);
  EXPECT_EQ(ThreadPool::global().size(), 3u);
  EXPECT_EQ(ThreadPool::global_threads(), 3u);
  ThreadPool::set_global_threads(1);
  EXPECT_EQ(ThreadPool::global().size(), 1u);
  ThreadPool::set_global_threads(0);  // back to hardware default
  EXPECT_GE(ThreadPool::global_threads(), 1u);
}

}  // namespace
}  // namespace scapegoat
