#include "service/supervisor.hpp"

#include <algorithm>
#include <string>
#include <utility>

#include "obs/obs.hpp"
#include "robust/watchdog.hpp"

namespace scapegoat::service {

constexpr std::size_t kMaxRestartsPerShard = 8;

ProbeIngestService::ProbeIngestService(
    const std::vector<const Scenario*>& catalog, const ServiceOptions& opt)
    : catalog_(catalog), opt_(opt) {
  if (opt_.shards == 0) opt_.shards = 1;
  if (opt_.stride == 0 || opt_.stride > opt_.window)
    opt_.stride = opt_.window;
}

ProbeIngestService::~ProbeIngestService() { drain(); }

robust::Status ProbeIngestService::start() {
  if (started_.load(std::memory_order_acquire)) return robust::ok_status();
  if (opt_.shards > kMaxShards) {
    return robust::Error{robust::ErrorCode::kInvalidInput,
                         std::to_string(opt_.shards) + " shards (at most " +
                             std::to_string(kMaxShards) + ")"};
  }
  // An empty window has no mean to threshold (Eq. 23 could never fire) and
  // no residuals to journal; a queue of capacity 0 admits nothing.
  if (opt_.window == 0) {
    return robust::Error{robust::ErrorCode::kInvalidInput,
                         "a detection window of 0 batches"};
  }
  if (opt_.queue_capacity == 0) {
    return robust::Error{robust::ErrorCode::kInvalidInput,
                         "a queue capacity of 0 batches"};
  }

  IngestQueueOptions qopt;
  qopt.capacity = opt_.queue_capacity;
  qopt.high_water = opt_.high_water;
  qopt.retry_after_base_ms = opt_.retry_after_base_ms;
  qopt.shed = opt_.shed;

  queues_.clear();
  shards_.clear();
  for (std::size_t k = 0; k < opt_.shards; ++k)
    queues_.push_back(std::make_unique<IngestQueue>(qopt));
  for (std::size_t k = 0; k < opt_.shards; ++k)
    shards_.push_back(
        std::make_unique<Shard>(k, *queues_[k], catalog_, opt_));

  for (auto& shard : shards_) {
    robust::Status status = shard->start();
    if (!status.ok()) return status;
  }

  const auto now = std::chrono::steady_clock::now();
  pulses_.clear();
  for (auto& shard : shards_) pulses_.push_back({shard->heartbeat(), now});
  restarts_used_.assign(shards_.size(), 0);

  draining_.store(false, std::memory_order_release);
  started_.store(true, std::memory_order_release);
  publish_state(opt_.shed.mode == ShedPolicy::Mode::kPinned
                    ? ServiceState::kShedding
                    : ServiceState::kHealthy);
  supervisor_ = std::thread(&ProbeIngestService::supervise, this);
  return robust::ok_status();
}

AdmitResult ProbeIngestService::submit(ProbeBatch batch) {
  offered_.fetch_add(1, std::memory_order_relaxed);
  // Pinned shedding decides FIRST — before drain state, before the queue —
  // from the pure (seed, batch_id) predicate. That ordering is the whole
  // replay guarantee: the realized shed set equals the candidate set no
  // matter how the run was sharded, loaded or interrupted.
  if (opt_.shed.mode == ShedPolicy::Mode::kPinned &&
      is_shed_candidate(opt_.shed.seed, batch.batch_id, opt_.shed.permille)) {
    shed_.fetch_add(1, std::memory_order_relaxed);
    obs::count("service.shed.pinned");
    return {Admission::kShed, 0.0};
  }
  if (!started_.load(std::memory_order_acquire) ||
      draining_.load(std::memory_order_acquire)) {
    closed_.fetch_add(1, std::memory_order_relaxed);
    return {Admission::kClosed, 0.0};
  }
  AdmitResult result =
      queues_[shard_of(batch.topology)]->offer(std::move(batch));
  switch (result.outcome) {
    case Admission::kAdmitted:
      admitted_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Admission::kRejected:
      rejected_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Admission::kShed:
      shed_.fetch_add(1, std::memory_order_relaxed);
      break;
    case Admission::kClosed:
      closed_.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  return result;
}

void ProbeIngestService::supervise() {
  const auto interval = std::chrono::duration<double, std::milli>(
      opt_.supervise_interval_ms);
  while (!draining_.load(std::memory_order_acquire)) {
    std::this_thread::sleep_for(interval);
    if (robust::shutdown_requested()) {
      // SIGTERM/SIGINT: stop admissions now so shards start draining; the
      // owner's drain() (or our destructor) completes the join.
      publish_state(ServiceState::kDraining);
      for (auto& queue : queues_) queue->close();
      return;
    }
    if (draining_.load(std::memory_order_acquire)) return;

    const auto now = std::chrono::steady_clock::now();
    bool degraded = false;
    bool shedding = opt_.shed.mode == ShedPolicy::Mode::kPinned;
    for (std::size_t k = 0; k < shards_.size(); ++k) {
      Shard& shard = *shards_[k];
      const Shard::Phase phase = shard.phase();
      if (phase == Shard::Phase::kCrashed) {
        shard.join();
        if (restarts_used_[k] < kMaxRestartsPerShard) {
          ++restarts_used_[k];
          restarts_.fetch_add(1, std::memory_order_relaxed);
          obs::count("service.shard.restarts");
          // Resumes from the shard's own journal; a failed open (journal
          // volume gone) leaves the shard down and us degraded.
          if (!shard.start().ok()) obs::count("service.shard.restart_failed");
          pulses_[k] = {shard.heartbeat(), now};
        }
        degraded = true;  // permanently-down shards keep us degraded
      } else if (phase == Shard::Phase::kRunning && shard.in_batch()) {
        const std::uint64_t hb = shard.heartbeat();
        if (hb != pulses_[k].last_heartbeat) {
          pulses_[k] = {hb, now};
        } else if (std::chrono::duration<double, std::milli>(
                       now - pulses_[k].last_change)
                       .count() > opt_.wedge_timeout_ms) {
          // Mid-batch with no progress for the whole wedge window: abort
          // cooperatively; the crash path above restarts it next pass.
          obs::count("service.shard.wedged");
          shard.request_abort();
          pulses_[k].last_change = now;
        }
      } else {
        pulses_[k] = {shard.heartbeat(), now};
      }

      const std::size_t depth = queues_[k]->depth();
      if (depth >= queues_[k]->options().high_water) degraded = true;
      if (depth >= queues_[k]->options().capacity &&
          opt_.shed.mode == ShedPolicy::Mode::kAuto)
        shedding = true;
    }
    publish_state(shedding ? ServiceState::kShedding
                  : degraded ? ServiceState::kDegraded
                             : ServiceState::kHealthy);
  }
}

void ProbeIngestService::drain() {
  if (!started_.exchange(false, std::memory_order_acq_rel)) {
    if (supervisor_.joinable()) supervisor_.join();
    return;
  }
  publish_state(ServiceState::kDraining);
  draining_.store(true, std::memory_order_release);
  for (auto& queue : queues_) queue->close();
  if (supervisor_.joinable()) supervisor_.join();

  // Wind the shards down with the wedge detector still running: the
  // supervisor thread is gone, and a shard stalled mid-batch would
  // otherwise block this join forever.
  const auto interval = std::chrono::duration<double, std::milli>(
      opt_.supervise_interval_ms);
  for (auto& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::uint64_t last_hb = shard.heartbeat();
    auto last_change = std::chrono::steady_clock::now();
    while (shard.phase() == Shard::Phase::kRunning) {
      std::this_thread::sleep_for(interval);
      const std::uint64_t hb = shard.heartbeat();
      const auto now = std::chrono::steady_clock::now();
      if (hb != last_hb || !shard.in_batch()) {
        last_hb = hb;
        last_change = now;
      } else if (std::chrono::duration<double, std::milli>(now - last_change)
                     .count() > opt_.wedge_timeout_ms) {
        obs::count("service.shard.wedged");
        shard.request_abort();
        last_change = now;
      }
    }
    shard.join();
  }

  // A shard that crashed mid-drain still has backlog in its closed queue;
  // restart it (within budget) so the drain finishes the queue too.
  for (std::size_t k = 0; k < shards_.size(); ++k) {
    while (shards_[k]->phase() == Shard::Phase::kCrashed &&
           restarts_used_[k] < kMaxRestartsPerShard) {
      ++restarts_used_[k];
      restarts_.fetch_add(1, std::memory_order_relaxed);
      obs::count("service.shard.restarts");
      if (!shards_[k]->start().ok()) break;
      shards_[k]->join();
    }
  }
  publish_state(ServiceState::kStopped);
}

bool ProbeIngestService::stopped() const {
  return state() == ServiceState::kStopped;
}

std::uint64_t ProbeIngestService::resume_seq(std::uint32_t topology) const {
  if (shards_.empty()) return 0;
  return shards_[shard_of(topology)]->resume_seq(topology);
}

const std::vector<WindowDecision>& ProbeIngestService::decisions(
    std::uint32_t topology) const {
  static const std::vector<WindowDecision> kEmpty;
  if (shards_.empty()) return kEmpty;
  return shards_[shard_of(topology)]->decisions(topology);
}

ServiceStats ProbeIngestService::stats() const {
  ServiceStats s;
  s.offered = offered_.load(std::memory_order_relaxed);
  s.admitted = admitted_.load(std::memory_order_relaxed);
  s.rejected = rejected_.load(std::memory_order_relaxed);
  s.shed = shed_.load(std::memory_order_relaxed);
  s.closed = closed_.load(std::memory_order_relaxed);
  s.restarts = restarts_.load(std::memory_order_relaxed);
  for (const auto& shard : shards_) {
    const ShardCounters c = shard->counters();
    s.processed += c.processed;
    s.duplicates += c.duplicates;
    s.malformed += c.malformed;
    s.quarantined += c.quarantined;
    s.windows += c.windows;
    s.alarms += c.alarms;
  }
  for (const auto& queue : queues_)
    s.max_queue_depth = std::max(s.max_queue_depth, queue->max_depth());
  return s;
}

void ProbeIngestService::publish_state(ServiceState s) {
  state_.store(s, std::memory_order_release);
  obs::gauge_set("service.state", static_cast<std::int64_t>(s));
}

}  // namespace scapegoat::service
