// Worker shard of the probe-ingest service (DESIGN.md §13).
//
// A shard is the single consumer of one bounded IngestQueue. It owns the
// per-topology estimator state for every topology with
// `topology % shards == shard_index`, runs the Eq. 23 detector online over a
// sliding window of per-batch residuals, and journals every emitted window
// decision through robust/checkpoint so a crashed or wedged shard restarts
// exactly where its journal left off.
//
// Per batch (all inside the shard thread, no locks on the hot path):
//   1. dedup — `seq < next_seq` means the batch (or a retry of it) was
//      already absorbed; duplicates are counted and skipped, which makes
//      at-least-once redelivery after a restart idempotent,
//   2. growth — if the GrowthPlan says batch `seq` carries more paths than
//      the estimator currently has, the estimator absorbs duplicate routes
//      via Estimator::try_append_path: an incremental CSR append plus the
//      O(mn) row-append update of the cached G = R⁺ and the O(m) one of
//      the cached left-null-space basis N. Both after k appends depend only
//      on the path set and order, so a restarted shard that appends them
//      all at once gets the same bits,
//   3. solve — residual r = y − R·x̂ via Estimator::streaming_residual (for
//      least squares N·(Nᵀy) through the cached N, whose m − n columns are
//      far fewer than G's n rows: no x̂ is formed, and the streaming hot
//      path never re-factorizes, growth included), ‖r‖₁ pushed into the
//      topology's sliding window,
//   4. emit — once `window` residuals are buffered and `stride` new batches
//      arrived since the last emission, the window mean is thresholded
//      against alpha_ms and the WindowDecision is journaled + flushed.
//
// The journal payload carries the FULL window of residual bit patterns (not
// just the mean), so a restart restores the sliding window's overlap state
// bitwise and the post-restart decisions are identical to an uninterrupted
// run — the property the SIGKILL test pins.
//
// Failure envelope: a batch that exceeds the per-batch watchdog budget is
// quarantined (journaled with its error code, counted, skipped); any
// exception escaping the batch loop parks the shard in Phase::kCrashed for
// the supervisor to restart; a wedged batch (no heartbeat progress) is
// aborted cooperatively via request_abort() and likewise restarted.

#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/scenario.hpp"
#include "robust/checkpoint.hpp"
#include "service/ingest_queue.hpp"
#include "service/options.hpp"

namespace scapegoat::service {

// One emitted sliding-window detector decision.
struct WindowDecision {
  std::uint32_t topology = 0;
  std::uint64_t window_index = 0;  // per-topology, dense from 0
  std::uint64_t next_seq = 0;      // ack cursor after this window's batches
  double mean_residual_ms = 0.0;   // window mean of ‖y − R x̂‖₁
  bool alarm = false;              // mean > alpha_ms (Eq. 23 online)
  std::vector<double> residuals;   // the window contents, oldest first
};

// Journal payload codec for WindowDecision (doubles as 16-hex bit patterns;
// exposed for the restart tests).
std::string encode_window_payload(const WindowDecision& decision);
std::optional<WindowDecision> decode_window_payload(std::uint32_t topology,
                                                    std::uint64_t window_index,
                                                    const std::string& payload);

// Journal record family for topology `t`: per-topology index namespaces.
std::string window_family(std::uint32_t topology);
// Derived (and replay-cross-checked) seed of window record (t, w).
std::uint64_t window_record_seed(std::uint64_t base, std::uint32_t topology,
                                 std::uint64_t window_index);

// Monotonically increasing counters, readable while the shard runs.
struct ShardCounters {
  std::uint64_t processed = 0;    // batches absorbed into a window
  std::uint64_t duplicates = 0;   // seq < next_seq (redelivery) — idempotent
  std::uint64_t malformed = 0;    // wrong measurement width for seq
  std::uint64_t quarantined = 0;  // over-budget batches, journaled + skipped
  std::uint64_t windows = 0;      // decisions emitted (this process lifetime)
  std::uint64_t alarms = 0;       // decisions with alarm == true
};

class Shard {
 public:
  enum class Phase { kIdle, kRunning, kStopped, kCrashed };

  // `catalog` is the full topology list (indexed by topology id); the shard
  // filters to the ids it owns. Scenarios must outlive the shard.
  Shard(std::size_t index, IngestQueue& queue,
        const std::vector<const Scenario*>& catalog,
        const ServiceOptions& opt);
  ~Shard();

  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  // (Re)builds per-topology state — from the journal when one is configured
  // — and spawns the worker thread. Also the restart entry point: the
  // supervisor calls start() again after a kCrashed shard is joined.
  // kIoError if the journal cannot be opened.
  robust::Status start();

  // Cooperative kill for wedged shards: the stall hooks and the batch loop
  // poll this flag; the shard parks in kCrashed for the supervisor.
  void request_abort() {
    abort_.store(true, std::memory_order_relaxed);
    queue_.kick();  // wake a consumer blocked on an empty queue
  }

  // Joins the worker thread if joinable (phase must have left kRunning or
  // the queue must be closed, or this blocks until then).
  void join();

  Phase phase() const { return phase_.load(std::memory_order_acquire); }

  // Progress witness for the wedge detector: bumped when a batch is picked
  // up and again when it completes. A shard is wedged iff it is mid-batch
  // (`in_batch()`) and the heartbeat has not moved for wedge_timeout_ms.
  std::uint64_t heartbeat() const {
    return heartbeat_.load(std::memory_order_relaxed);
  }
  bool in_batch() const { return in_batch_.load(std::memory_order_relaxed); }

  // Ack cursor restored from the journal for `topology` (0 when fresh or
  // not owned) — where a redelivering producer should resume offering.
  std::uint64_t resume_seq(std::uint32_t topology) const;

  ShardCounters counters() const;

  // Emitted decisions for `topology`, journal-restored ones included.
  // Only safe to read after join() (the worker thread appends to it).
  const std::vector<WindowDecision>& decisions(std::uint32_t topology) const;

  std::size_t owned_topologies() const { return states_.size(); }
  std::size_t restarts() const { return starts_ == 0 ? 0 : starts_ - 1; }

 private:
  struct TopologyState {
    std::uint32_t topology = 0;
    // Shard-owned deep copy (any Estimator family); grows with the plan.
    std::unique_ptr<Estimator> estimator;
    std::size_t base_paths = 0;
    std::uint64_t next_seq = 0;  // dedup/ack cursor
    std::deque<double> residuals;
    std::size_t since_emit = 0;
    std::uint64_t next_window = 0;
    std::vector<WindowDecision> decisions;

    TopologyState(std::uint32_t t, const Estimator& est)
        : topology(t), estimator(est.clone()), base_paths(est.num_paths()) {}
  };

  void restore_states();
  TopologyState* state_for(std::uint32_t topology);
  const TopologyState* state_for(std::uint32_t topology) const;

  void run();
  // ok on absorbed/deduped/malformed batches; an Error means the batch must
  // be quarantined (over budget). Throws only for crash/abort.
  robust::Status process_batch(TopologyState& st, const ProbeBatch& batch);
  void ensure_growth(TopologyState& st, std::uint64_t seq);
  void emit_window(TopologyState& st);
  void quarantine_batch(TopologyState& st, const ProbeBatch& batch,
                        const robust::Error& error);

  std::size_t index_ = 0;
  IngestQueue& queue_;
  std::vector<const Scenario*> catalog_;
  ServiceOptions opt_;

  std::vector<TopologyState> states_;  // owned topologies, ascending id
  std::unique_ptr<robust::CheckpointJournal> journal_;
  std::string journal_path_;

  std::thread thread_;
  std::atomic<Phase> phase_{Phase::kIdle};
  std::atomic<bool> abort_{false};
  std::atomic<bool> in_batch_{false};
  std::atomic<std::uint64_t> heartbeat_{0};
  std::size_t starts_ = 0;
  bool crash_fired_ = false;  // injected crash fires once per Shard object

  std::atomic<std::uint64_t> processed_{0};
  std::atomic<std::uint64_t> duplicates_{0};
  std::atomic<std::uint64_t> malformed_{0};
  std::atomic<std::uint64_t> quarantined_{0};
  std::atomic<std::uint64_t> windows_{0};
  std::atomic<std::uint64_t> alarms_{0};
};

}  // namespace scapegoat::service
