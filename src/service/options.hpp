// Configuration and service-level state machine of the streaming
// probe-ingest engine (DESIGN.md §13).

#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "service/probe_batch.hpp"

namespace scapegoat::service {

// The supervisor's service-level state machine, exported through the
// `service.state` obs gauge (as the enum's integer value):
//
//   kHealthy   admissions flowing, all shards alive, queues under high water
//   kDegraded  backpressure active (some queue ≥ high water) or a shard is
//              being restarted — the service still accepts what fits
//   kShedding  some queue is at hard capacity (auto mode) or the shed
//              policy is pinned — deterministic load shedding in force
//   kDraining  stop requested (SIGTERM / drain()): admissions closed,
//              shards finishing the queued backlog, journals flushing
//   kStopped   drained and joined; terminal
enum class ServiceState {
  kHealthy,
  kDegraded,
  kShedding,
  kDraining,
  kStopped,
};

inline std::string to_string(ServiceState s) {
  switch (s) {
    case ServiceState::kHealthy:
      return "healthy";
    case ServiceState::kDegraded:
      return "degraded";
    case ServiceState::kShedding:
      return "shedding";
    case ServiceState::kDraining:
      return "draining";
    case ServiceState::kStopped:
      return "stopped";
  }
  return "unknown";
}

inline std::optional<ServiceState> service_state_from_string(
    std::string_view s) {
  for (ServiceState state :
       {ServiceState::kHealthy, ServiceState::kDegraded,
        ServiceState::kShedding, ServiceState::kDraining,
        ServiceState::kStopped}) {
    if (to_string(state) == s) return state;
  }
  return std::nullopt;
}

// Deterministic failure injection for the supervisor tests: a shard that is
// told to crash or stall on a specific batch id. `kNoBatch` disables a hook.
// The stall loop polls the shard's abort flag and the batch watchdog, so a
// stalled shard is recoverable both ways: with a per-batch budget the batch
// is quarantined and the shard moves on; without one the supervisor's
// wedge detector aborts and restarts the shard.
struct ShardFaultPlan {
  static constexpr std::uint64_t kNoBatch = ~0ull;
  std::uint64_t crash_on_batch = kNoBatch;  // throw mid-batch once
  std::uint64_t stall_on_batch = kNoBatch;  // busy-stall until abort/budget
};

// Most shards one service runs. Each shard is a thread with its own queue,
// so ProbeIngestService::start refuses more with kInvalidInput before it
// allocates either.
inline constexpr std::size_t kMaxShards = 64;

struct ServiceOptions {
  // Sharding and queueing. Each shard owns the topologies with
  // `topology % shards == shard_index` and one bounded ingest queue.
  std::size_t shards = 1;  // ≤ kMaxShards
  std::size_t queue_capacity = 1024;  // hard per-queue bound
  std::size_t high_water = 768;       // backpressure threshold
  double retry_after_base_ms = 5.0;   // rejection hint at the high-water mark
  ShedPolicy shed;

  // Online Eq. 23 detection: sliding window of per-batch residual ‖y−Rx̂‖₁
  // values; every `stride` processed batches (once `window` have been seen)
  // the window's mean is thresholded against `alpha_ms` for the per-window
  // alarm. stride ≤ window; stride == window gives tumbling windows.
  std::size_t window = 8;
  std::size_t stride = 8;
  double alpha_ms = 200.0;

  // Per-batch watchdog budget (robust/watchdog); 0 = unlimited. A batch
  // that exceeds it is quarantined with an error-taxonomy code, never
  // silently dropped.
  double batch_budget_ms = 0.0;

  // Supervision cadence: health-check interval and the no-progress window
  // after which a mid-batch shard counts as wedged and is restarted (at most
  // kMaxRestartsPerShard = 8 times, supervisor.cpp).
  double supervise_interval_ms = 2.0;
  double wedge_timeout_ms = 250.0;

  // Per-window journal (robust/checkpoint): empty disables journaling.
  // Shard k appends to `journal_path + ".shard" + k`; restart resumes from
  // the last journaled window. `resume` applies to the FIRST start — in-run
  // restarts always resume their own journal.
  std::string journal_path;
  bool resume = false;

  // Seed mixed into the journal config hash and the per-window record
  // seeds; the session/load-generator seed is derived from the same value
  // so one knob replays a whole run.
  std::uint64_t seed = 0;

  // Mid-stream measurement-path growth (absorbed via the incremental CSR
  // row append — see tomography/estimator try_append_path).
  GrowthPlan growth;

  // Test-only failure injection.
  ShardFaultPlan fault_plan;
};

}  // namespace scapegoat::service
