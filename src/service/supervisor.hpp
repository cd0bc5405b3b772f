// The probe-ingest service: shards, supervisor thread, state machine
// (DESIGN.md §13).
//
// `ProbeIngestService` owns N worker shards, each with its own bounded
// IngestQueue, plus one supervisor thread that:
//   * restarts crashed shards from their robust/checkpoint journals (up to
//     kMaxRestartsPerShard = 8; beyond that the shard stays down and the
//     service reports it),
//   * detects wedged shards — mid-batch with a stale heartbeat for longer
//     than wedge_timeout_ms — and aborts them cooperatively so the restart
//     path applies,
//   * honours robust::shutdown_requested() (SIGTERM/SIGINT via
//     install_graceful_shutdown) by initiating a drain,
//   * derives the service state and exports it through the `service.state`
//     obs gauge.
//
// Admission (submit) is thread-safe and lock-free above the queue mutex:
// under ShedPolicy::kPinned the pure candidate predicate is consulted FIRST,
// before any queue or drain state, which is what makes the realized shed set
// equal to the candidate set — replayable at any shard count, thread count
// or load level. Everything else is the queue's admission ladder.
//
// drain() is the graceful-stop contract: admissions close (kClosed),
// shards finish the queued backlog, journals flush, threads join,
// state == kStopped. Every admitted batch is then accounted for:
//   admitted == processed + duplicates + malformed + quarantined
//             + lost_in_flight
// where lost_in_flight > 0 only if a shard crashed with batches popped but
// not yet journaled (re-offer from resume_seq() to recover those).

#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "robust/expected.hpp"
#include "service/ingest_queue.hpp"
#include "service/options.hpp"
#include "service/shard.hpp"

namespace scapegoat::service {

// Admission + processing totals, all monotone. Snapshot via stats().
struct ServiceStats {
  std::uint64_t offered = 0;    // submit() calls
  std::uint64_t admitted = 0;   // enqueued
  std::uint64_t rejected = 0;   // backpressured with a retry-after hint
  std::uint64_t shed = 0;       // deterministically dropped
  std::uint64_t closed = 0;     // refused because draining/stopped
  // Shard-side (summed over shards):
  std::uint64_t processed = 0;
  std::uint64_t duplicates = 0;
  std::uint64_t malformed = 0;
  std::uint64_t quarantined = 0;
  std::uint64_t windows = 0;
  std::uint64_t alarms = 0;
  std::uint64_t restarts = 0;       // shard restarts performed
  std::size_t max_queue_depth = 0;  // max over shards (bounded-memory witness)

  // Batches popped by a shard that then crashed before their window was
  // journaled; 0 on a clean drain.
  std::uint64_t lost_in_flight() const {
    const std::uint64_t absorbed =
        processed + duplicates + malformed + quarantined;
    return admitted > absorbed ? admitted - absorbed : 0;
  }
};

class ProbeIngestService {
 public:
  // `catalog[t]` is topology t's scenario; must outlive the service.
  ProbeIngestService(const std::vector<const Scenario*>& catalog,
                     const ServiceOptions& opt);
  ~ProbeIngestService();

  ProbeIngestService(const ProbeIngestService&) = delete;
  ProbeIngestService& operator=(const ProbeIngestService&) = delete;

  // Starts shards and the supervisor thread. kInvalidInput for more than
  // kMaxShards shards, a window of 0 or a queue capacity of 0 (nothing is
  // allocated); kIoError if a journal cannot be opened.
  robust::Status start();

  // Thread-safe admission; see the header comment for the pinned-shed
  // ordering guarantee.
  AdmitResult submit(ProbeBatch batch);

  // Graceful stop: close admissions, drain queues, flush journals, join
  // everything. Idempotent; also runs from the destructor.
  void drain();

  // True once drain() completed (state == kStopped).
  bool stopped() const;

  ServiceState state() const {
    return state_.load(std::memory_order_acquire);
  }

  // Where a redelivering producer should resume topology t's stream after
  // a restart (the journal-restored ack cursor). Read before offering.
  std::uint64_t resume_seq(std::uint32_t topology) const;

  // Emitted window decisions for topology t (journal-restored included).
  // Stable only after drain().
  const std::vector<WindowDecision>& decisions(std::uint32_t topology) const;

  ServiceStats stats() const;

  std::size_t num_shards() const { return shards_.size(); }
  const ServiceOptions& options() const { return opt_; }

 private:
  std::size_t shard_of(std::uint32_t topology) const {
    return topology % shards_.size();
  }
  void supervise();
  void publish_state(ServiceState s);

  std::vector<const Scenario*> catalog_;
  ServiceOptions opt_;

  std::vector<std::unique_ptr<IngestQueue>> queues_;
  std::vector<std::unique_ptr<Shard>> shards_;
  std::vector<std::size_t> restarts_used_;

  std::thread supervisor_;
  std::atomic<ServiceState> state_{ServiceState::kStopped};
  std::atomic<bool> draining_{false};
  std::atomic<bool> started_{false};

  // Heartbeat bookkeeping for the wedge detector, supervisor thread only.
  struct Pulse {
    std::uint64_t last_heartbeat = 0;
    std::chrono::steady_clock::time_point last_change{};
  };
  std::vector<Pulse> pulses_;

  std::atomic<std::uint64_t> offered_{0};
  std::atomic<std::uint64_t> admitted_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> shed_{0};
  std::atomic<std::uint64_t> closed_{0};
  std::atomic<std::uint64_t> restarts_{0};
};

}  // namespace scapegoat::service
