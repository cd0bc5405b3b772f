// ExecutionPolicy — the shared {threads, grain, seed} trio every
// Monte-Carlo runner needs. Each experiment options struct inherits it, so
// generic code (ArgParser::apply_execution, acquire_pool, the bench
// harnesses) can take any of them as an `ExecutionPolicy&`. Derived structs
// set their experiment-specific defaults in their default constructor (see
// core/experiment.hpp).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>

#include "util/thread_pool.hpp"

namespace scapegoat {

struct ExecutionPolicy {
  std::size_t threads = 0;   // 0 = process-global pool; n = dedicated pool
  std::size_t grain = 8;     // work items per worker chunk
  std::uint64_t seed = 0;    // master seed; trials derive private streams

  ExecutionPolicy() = default;
  ExecutionPolicy(std::size_t threads_, std::size_t grain_,
                  std::uint64_t seed_)
      : threads(threads_), grain(grain_), seed(seed_) {}

  // The policy sub-object — handy when a derived options struct needs to
  // copy just the execution trio to another runner's options.
  ExecutionPolicy& execution() { return *this; }
  const ExecutionPolicy& execution() const { return *this; }
};

// Resolves the policy to a pool: threads == 0 shares the process-global
// pool, anything else materializes a dedicated pool in `owned` that lives
// until the caller drops it (used by the scaling bench and the determinism
// tests to pin exact worker counts).
inline ThreadPool& acquire_pool(const ExecutionPolicy& exec,
                                std::unique_ptr<ThreadPool>& owned) {
  if (exec.threads == 0) return ThreadPool::global();
  owned = std::make_unique<ThreadPool>(exec.threads);
  return *owned;
}

}  // namespace scapegoat
