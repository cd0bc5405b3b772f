// Unit tests for util/thread_pool: task completion via futures, exception
// propagation out of workers, parallel_for index coverage (every index
// exactly once, any grain), nested/inline execution, drain-on-destroy
// with queued work, and workers leaving an installed metrics registry alone
// once the work that used it has returned.

#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include "obs/obs.hpp"

namespace scapegoat {
namespace {

TEST(ThreadPool, SubmitReturnsTaskResults) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::future<int>> futures;
  for (int i = 0; i < 32; ++i)
    futures.push_back(pool.submit([i] { return i * i; }));
  for (int i = 0; i < 32; ++i) EXPECT_EQ(futures[i].get(), i * i);
}

TEST(ThreadPool, SubmitVoidTaskCompletes) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  auto f = pool.submit([&ran] { ++ran; });
  f.get();
  EXPECT_EQ(ran.load(), 1);
}

TEST(ThreadPool, SubmitPropagatesExceptionThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit(
      []() -> int { throw std::runtime_error("worker boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
  // The pool stays usable after a task threw.
  EXPECT_EQ(pool.submit([] { return 7; }).get(), 7);
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
  pool.parallel_for_each(0, 10, 1, [&](std::size_t) { ++count; });
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
  pool.parallel_for_each(10, 10, 4, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0u);
  pool.parallel_for_each(10, 11, 4, [&](std::size_t i) {
    EXPECT_EQ(i, 10u);
    ++count;
  });
  EXPECT_EQ(count.load(), 1u);
  // grain 0 is treated as 1.
  pool.parallel_for_each(0, 5, 0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 6u);
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
      pool.parallel_for_each(outer * 8, (outer + 1) * 8, 2,
                             [&](std::size_t i) { ++hits[i]; });
    }
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1);
}

TEST(ThreadPool, OnWorkerThreadIsScopedToThePool) {
  ThreadPool pool(2);
  EXPECT_FALSE(pool.on_worker_thread());
  EXPECT_TRUE(pool.submit([&pool] { return pool.on_worker_thread(); }).get());
  ThreadPool other(2);
  EXPECT_FALSE(other.submit([&pool] { return pool.on_worker_thread(); }).get());
}

TEST(ThreadPool, DestructionDrainsQueuedWork) {
  std::atomic<int> ran{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 64; ++i) {
      pool.submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ++ran;
      });
    }
    // Destructor joins only after every queued task has executed.
  }
  EXPECT_EQ(ran.load(), 64);
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
