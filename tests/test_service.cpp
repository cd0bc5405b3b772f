// Streaming probe-ingest service suite (DESIGN.md §13): the pure shedding
// predicate, the bounded-queue admission ladder, the window-payload codec,
// end-to-end closed-loop sessions (honest vs attacked streams through the
// online Eq. 23 detector), shard-count invariance of the pinned shed set and
// of the window decisions, crash/wedge restart supervision, over-budget
// quarantine, journal resume with at-least-once redelivery, and — the
// satellite-3 contract — a SIGKILL'd service whose clean resume reproduces
// the uninterrupted window series bitwise.

#include "service/supervisor.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "robust/checkpoint.hpp"
#include "service/ingest_queue.hpp"
#include "service/session.hpp"
#include "simnet/load_gen.hpp"
#include "util/random.hpp"

// fork() + worker threads is undefined under TSan; the kill/resume test is
// compiled out there (the in-process crash/restart tests cover the same
// journal-resume logic).
#if defined(__SANITIZE_THREAD__)
#define SCAPEGOAT_NO_FORK_TESTS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SCAPEGOAT_NO_FORK_TESTS 1
#endif
#endif

namespace scapegoat::service {
namespace {

std::string tmp_journal(const std::string& name) {
  return ::testing::TempDir() + "service_test_" + name;
}

void remove_shard_journals(const std::string& path, std::size_t shards) {
  for (std::size_t k = 0; k < shards; ++k) {
    const std::string p = path + ".shard" + std::to_string(k);
    std::remove(p.c_str());
    std::remove((p + ".manifest").c_str());
  }
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

ProbeBatch make_batch(std::uint64_t id, std::uint32_t topology,
                      std::uint64_t seq, std::size_t width = 1) {
  ProbeBatch b;
  b.batch_id = id;
  b.topology = topology;
  b.seq = seq;
  b.y = Vector(width, 1.0);
  return b;
}

// Small deterministic closed-loop workload shared by the session tests;
// window == stride == 4 gives tumbling windows with an exact count.
SessionWorkload small_workload() {
  SessionWorkload w;
  w.kind = TopologyKind::kWireline;
  w.topologies = 2;
  w.scenario_seed = 7;
  w.load.seed = derive_seed(7, 0x10adull);
  w.load.batches_per_topology = 16;
  w.load.noise_ms = 1.0;
  w.producers = 1;
  w.closed_loop = true;
  return w;
}

ServiceOptions small_options() {
  ServiceOptions opt;
  opt.shards = 1;
  opt.queue_capacity = 64;
  opt.high_water = 48;
  opt.window = 4;
  opt.stride = 4;
  opt.alpha_ms = 200.0;
  opt.seed = 7;
  opt.shed.seed = 7;
  opt.shed.mode = ShedPolicy::Mode::kOff;
  return opt;
}

void expect_same_decisions(const std::vector<WindowDecision>& a,
                           const std::vector<WindowDecision>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].topology, b[i].topology);
    EXPECT_EQ(a[i].window_index, b[i].window_index);
    EXPECT_EQ(a[i].next_seq, b[i].next_seq);
    EXPECT_EQ(a[i].alarm, b[i].alarm);
    EXPECT_TRUE(bits_equal(a[i].mean_residual_ms, b[i].mean_residual_ms))
        << "window " << i;
    ASSERT_EQ(a[i].residuals.size(), b[i].residuals.size());
    for (std::size_t r = 0; r < a[i].residuals.size(); ++r)
      EXPECT_TRUE(bits_equal(a[i].residuals[r], b[i].residuals[r]))
          << "window " << i << " residual " << r;
  }
}

// ------------------------------------------------------ shed predicate ---

TEST(ShedPredicate, PureAndEdgeCases) {
  EXPECT_EQ(is_shed_candidate(42, 1000, 125), is_shed_candidate(42, 1000, 125));
  for (std::uint64_t id = 0; id < 64; ++id) {
    EXPECT_FALSE(is_shed_candidate(42, id, 0));
    EXPECT_TRUE(is_shed_candidate(42, id, 1000));
    EXPECT_TRUE(is_shed_candidate(42, id, 1500));
  }
}

TEST(ShedPredicate, FractionTracksPermilleAndSeedChangesTheSet) {
  const std::uint32_t permille = 125;
  std::size_t hits = 0;
  std::size_t differs = 0;
  const std::size_t n = 100'000;
  for (std::uint64_t id = 0; id < n; ++id) {
    const bool a = is_shed_candidate(7, id, permille);
    hits += a ? 1 : 0;
    differs += a != is_shed_candidate(8, id, permille) ? 1 : 0;
  }
  const double rate = static_cast<double>(hits) / static_cast<double>(n);
  EXPECT_GT(rate, 0.10);
  EXPECT_LT(rate, 0.15);
  EXPECT_GT(differs, 0u);  // the seed really keys the candidate set
}

TEST(ShedPredicate, InterleavedBatchIdsAreDistinct) {
  // 3 topologies x 5 seqs tile the id space with no collisions.
  std::vector<std::uint64_t> ids;
  for (std::uint32_t t = 0; t < 3; ++t)
    for (std::uint64_t s = 0; s < 5; ++s)
      ids.push_back(interleaved_batch_id(t, s, 3));
  std::sort(ids.begin(), ids.end());
  for (std::size_t i = 0; i < ids.size(); ++i) EXPECT_EQ(ids[i], i);
}

// -------------------------------------------------------- window codec ---

TEST(WindowCodec, RoundTripsBitwise) {
  WindowDecision d;
  d.topology = 3;
  d.window_index = 17;
  d.next_seq = 144;
  d.mean_residual_ms = 0.1 + 0.2;  // not exactly 0.3: bit fidelity matters
  d.alarm = true;
  d.residuals = {1.5, -0.0, 5e-324, 1e308, 0.30000000000000004};

  const auto back = decode_window_payload(3, 17, encode_window_payload(d));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->topology, 3u);
  EXPECT_EQ(back->window_index, 17u);
  EXPECT_EQ(back->next_seq, 144u);
  EXPECT_TRUE(back->alarm);
  EXPECT_TRUE(bits_equal(back->mean_residual_ms, d.mean_residual_ms));
  ASSERT_EQ(back->residuals.size(), d.residuals.size());
  for (std::size_t i = 0; i < d.residuals.size(); ++i)
    EXPECT_TRUE(bits_equal(back->residuals[i], d.residuals[i]));
}

TEST(WindowCodec, RejectsMalformedPayloads) {
  EXPECT_FALSE(decode_window_payload(0, 0, "").has_value());
  EXPECT_FALSE(decode_window_payload(0, 0, "s=zz;a=1;m=0;r=0").has_value());
  EXPECT_FALSE(decode_window_payload(
                   0, 0, "s=0000000000000001;a=2;m=3ff0000000000000;r=")
                   .has_value());
  // An empty residual list cannot restore a sliding window.
  EXPECT_FALSE(decode_window_payload(
                   0, 0,
                   "s=0000000000000001;a=0;m=3ff0000000000000;r=")
                   .has_value());
}

// --------------------------------------------------------- ingest queue ---

TEST(IngestQueue, AdmitsUntilHighWaterThenRejectsWithHint) {
  IngestQueueOptions opt;
  opt.capacity = 4;
  opt.high_water = 2;
  opt.retry_after_base_ms = 5.0;
  IngestQueue q(opt);

  EXPECT_EQ(q.offer(make_batch(0, 0, 0)).outcome, Admission::kAdmitted);
  EXPECT_EQ(q.offer(make_batch(1, 0, 1)).outcome, Admission::kAdmitted);
  const AdmitResult rejected = q.offer(make_batch(2, 0, 2));
  EXPECT_EQ(rejected.outcome, Admission::kRejected);
  EXPECT_DOUBLE_EQ(rejected.retry_after_ms, 5.0);  // at the high-water mark
  EXPECT_EQ(q.depth(), 2u);

  // Draining one slot re-opens admission; FIFO order is preserved.
  const auto popped = q.pop_wait();
  ASSERT_TRUE(popped.has_value());
  EXPECT_EQ(popped->batch_id, 0u);
  EXPECT_EQ(q.offer(make_batch(2, 0, 2)).outcome, Admission::kAdmitted);
  EXPECT_EQ(q.max_depth(), 2u);
}

TEST(IngestQueue, HardLimitShedsCandidatesUnderAutoOnly) {
  IngestQueueOptions opt;
  opt.capacity = 2;
  opt.high_water = 2;  // hard limit == backpressure threshold
  opt.retry_after_base_ms = 5.0;
  opt.shed.mode = ShedPolicy::Mode::kAuto;
  opt.shed.permille = 1000;  // every id is a candidate
  IngestQueue q(opt);
  EXPECT_EQ(q.offer(make_batch(0, 0, 0)).outcome, Admission::kAdmitted);
  EXPECT_EQ(q.offer(make_batch(1, 0, 1)).outcome, Admission::kAdmitted);
  EXPECT_EQ(q.offer(make_batch(2, 0, 2)).outcome, Admission::kShed);

  // Same full queue without the auto policy: max-hint backpressure instead.
  IngestQueueOptions off = opt;
  off.shed.mode = ShedPolicy::Mode::kOff;
  IngestQueue q2(off);
  EXPECT_EQ(q2.offer(make_batch(0, 0, 0)).outcome, Admission::kAdmitted);
  EXPECT_EQ(q2.offer(make_batch(1, 0, 1)).outcome, Admission::kAdmitted);
  const AdmitResult full = q2.offer(make_batch(2, 0, 2));
  EXPECT_EQ(full.outcome, Admission::kRejected);
  EXPECT_DOUBLE_EQ(full.retry_after_ms, 10.0);  // 2x base at capacity
}

TEST(IngestQueue, CloseStopsAdmissionsButDrainsTheBacklog) {
  IngestQueueOptions opt;
  opt.capacity = 4;
  opt.high_water = 4;
  IngestQueue q(opt);
  EXPECT_EQ(q.offer(make_batch(0, 0, 0)).outcome, Admission::kAdmitted);
  EXPECT_EQ(q.offer(make_batch(1, 0, 1)).outcome, Admission::kAdmitted);
  q.close();
  EXPECT_TRUE(q.closed());
  EXPECT_EQ(q.offer(make_batch(2, 0, 2)).outcome, Admission::kClosed);
  EXPECT_EQ(q.pop_wait()->batch_id, 0u);
  EXPECT_EQ(q.pop_wait()->batch_id, 1u);
  EXPECT_FALSE(q.pop_wait().has_value());  // closed and drained
}

TEST(IngestQueue, AbortingPopWaitWakesWithoutConsuming) {
  IngestQueueOptions opt;
  opt.capacity = 4;
  IngestQueue q(opt);
  EXPECT_EQ(q.offer(make_batch(0, 0, 0)).outcome, Admission::kAdmitted);
  std::atomic<bool> abort{true};
  // The abort flag wins even with work queued: the supervisor's kill path
  // must not have to wait for the backlog.
  EXPECT_FALSE(q.pop_wait(abort).has_value());
  EXPECT_EQ(q.depth(), 1u);
}

// ------------------------------------------------------------- sessions ---

TEST(ServiceSession, HonestStreamDrainsExactlyAndStaysQuiet) {
  const SessionWorkload w = small_workload();
  const ServiceOptions opt = small_options();
  const auto report = run_service_session(w, opt);
  ASSERT_TRUE(report.ok()) << report.error_message();

  const ServiceStats& s = report.value().stats;
  EXPECT_EQ(report.value().final_state, ServiceState::kStopped);
  EXPECT_FALSE(report.value().interrupted);
  // Closed loop, queue never saturated: everything offered was admitted and
  // every admitted batch was absorbed.
  EXPECT_EQ(s.offered, 32u);
  EXPECT_EQ(s.admitted, 32u);
  EXPECT_EQ(s.rejected, 0u);
  EXPECT_EQ(s.shed, 0u);
  EXPECT_EQ(s.processed, 32u);
  EXPECT_EQ(s.lost_in_flight(), 0u);
  EXPECT_EQ(s.restarts, 0u);
  EXPECT_EQ(s.quarantined, 0u);
  EXPECT_EQ(s.malformed, 0u);
  // 16 batches through tumbling windows of 4: exactly 4 windows each.
  ASSERT_EQ(report.value().windows_by_topology.size(), 2u);
  for (const auto& windows : report.value().windows_by_topology) {
    EXPECT_EQ(windows.size(), 4u);
    for (const WindowDecision& d : windows) {
      EXPECT_FALSE(d.alarm);  // honest jitter stays far under alpha
      EXPECT_LT(d.mean_residual_ms, opt.alpha_ms);
    }
  }
  EXPECT_EQ(s.windows, 8u);
  EXPECT_EQ(s.alarms, 0u);
}

TEST(ServiceSession, AttackedStreamRaisesWindowAlarms) {
  SessionWorkload w = small_workload();
  w.load.attack_every = 4;  // one inconsistent batch per tumbling window
  w.load.attack_delay_ms = 800.0;
  const auto report = run_service_session(w, small_options());
  ASSERT_TRUE(report.ok()) << report.error_message();
  EXPECT_EQ(report.value().stats.processed, 32u);
  EXPECT_GT(report.value().stats.alarms, 0u);
  // The detector fires on the attacked stream and not on the honest one
  // (previous test) — the online form of the paper's detectability result.
}

TEST(ServiceSession, MidStreamPathGrowthKeepsWidthsConsistent) {
  SessionWorkload w = small_workload();
  w.load.growth.every = 4;
  w.load.growth.max_extra = 2;
  ServiceOptions opt = small_options();
  opt.growth = w.load.growth;
  const auto report = run_service_session(w, opt);
  ASSERT_TRUE(report.ok()) << report.error_message();
  const ServiceStats& s = report.value().stats;
  // The generator and the shard derive the same width for every seq, so
  // growth never produces a malformed batch.
  EXPECT_EQ(s.malformed, 0u);
  EXPECT_EQ(s.processed, 32u);
  EXPECT_EQ(s.lost_in_flight(), 0u);
}

TEST(ServiceSession, PinnedShedSetIsShardCountInvariant) {
  SessionWorkload w = small_workload();
  ServiceOptions opt = small_options();
  opt.shed.mode = ShedPolicy::Mode::kPinned;
  opt.shed.permille = 250;

  // The candidate set is a pure function of (seed, permille) over the ids.
  std::vector<std::uint64_t> expected;
  for (std::uint32_t t = 0; t < w.topologies; ++t)
    for (std::uint64_t seq = 0; seq < w.load.batches_per_topology; ++seq) {
      const std::uint64_t id = interleaved_batch_id(t, seq, w.topologies);
      if (is_shed_candidate(opt.shed.seed, id, opt.shed.permille))
        expected.push_back(id);
    }
  std::sort(expected.begin(), expected.end());
  ASSERT_GT(expected.size(), 0u);

  std::vector<SessionReport> reports;
  for (std::size_t shards : {std::size_t{1}, std::size_t{3}}) {
    ServiceOptions o = opt;
    o.shards = shards;
    SessionWorkload wl = w;
    wl.producers = shards == 1 ? 1 : 2;  // vary the producer count too
    auto report = run_service_session(wl, o);
    ASSERT_TRUE(report.ok()) << report.error_message();
    EXPECT_EQ(report.value().shed_ids, expected) << shards << " shards";
    const ServiceStats& s = report.value().stats;
    EXPECT_EQ(s.shed, expected.size());
    EXPECT_EQ(s.offered, s.admitted + s.rejected + s.shed + s.closed);
    EXPECT_EQ(s.lost_in_flight(), 0u);
    reports.push_back(std::move(report.value()));
  }
  // Same shed set => same surviving stream => identical decisions, bit for
  // bit, regardless of how the topologies were sharded.
  ASSERT_EQ(reports[0].windows_by_topology.size(),
            reports[1].windows_by_topology.size());
  for (std::size_t t = 0; t < reports[0].windows_by_topology.size(); ++t)
    expect_same_decisions(reports[0].windows_by_topology[t],
                          reports[1].windows_by_topology[t]);
}

// ---------------------------------------------------------- supervision ---

TEST(ServiceSupervision, CrashedShardRestartsFromItsJournal) {
  const std::string path = tmp_journal("crash.ckpt");
  remove_shard_journals(path, 1);

  SessionWorkload w = small_workload();
  ServiceOptions opt = small_options();
  opt.journal_path = path;
  opt.supervise_interval_ms = 1.0;
  // Crash mid-run: topology 0's 9th batch, after the first window flushed.
  opt.fault_plan.crash_on_batch = interleaved_batch_id(0, 8, w.topologies);

  const auto report = run_service_session(w, opt);
  ASSERT_TRUE(report.ok()) << report.error_message();
  const ServiceStats& s = report.value().stats;
  EXPECT_GE(s.restarts, 1u);
  EXPECT_EQ(report.value().final_state, ServiceState::kStopped);
  // Exactly the crashed batch was in flight; everything else is accounted.
  EXPECT_EQ(s.lost_in_flight(), 1u);
  EXPECT_GT(s.windows, 0u);
  EXPECT_EQ(s.offered, s.admitted + s.rejected + s.shed + s.closed);
  remove_shard_journals(path, 1);
}

TEST(ServiceSupervision, WedgedShardIsAbortedAndRestarted) {
  const std::string path = tmp_journal("wedge.ckpt");
  remove_shard_journals(path, 1);

  SessionWorkload w = small_workload();
  ServiceOptions opt = small_options();
  opt.journal_path = path;
  opt.supervise_interval_ms = 1.0;
  // Only the injected stall may outlast the wedge timeout. Sanitizer builds
  // stretch an ordinary batch (and the cold R⁺ a restarted shard rebuilds)
  // past tens of milliseconds; a timeout that short aborts healthy batches
  // too and burns the restart budget.
  opt.wedge_timeout_ms = 1'000.0;
  // No batch budget: the stall can only end through the wedge detector.
  opt.batch_budget_ms = 0.0;
  opt.fault_plan.stall_on_batch = interleaved_batch_id(1, 6, w.topologies);

  const auto report = run_service_session(w, opt);
  ASSERT_TRUE(report.ok()) << report.error_message();
  const ServiceStats& s = report.value().stats;
  EXPECT_GE(s.restarts, 1u);
  EXPECT_EQ(s.quarantined, 0u);
  EXPECT_EQ(s.lost_in_flight(), 1u);  // the aborted batch
  EXPECT_EQ(report.value().final_state, ServiceState::kStopped);
  remove_shard_journals(path, 1);
}

TEST(ServiceSupervision, OverBudgetBatchIsQuarantinedNotRestarted) {
  const std::string path = tmp_journal("quarantine.ckpt");
  remove_shard_journals(path, 1);

  SessionWorkload w = small_workload();
  ServiceOptions opt = small_options();
  opt.journal_path = path;
  // The injected stall runs until the budget expires, so it always exceeds
  // it; every other batch must stay inside it. An ordinary batch here is a
  // G·y product well under a millisecond natively, but sanitizer builds and
  // a busy single core stretch it (and the first batch's cold R⁺) past tens
  // of milliseconds, so the budget sits far above that. A still larger
  // wedge timeout keeps the supervisor out of it: the batch budget must be
  // the channel that ends the stall.
  opt.wedge_timeout_ms = 10'000.0;
  opt.batch_budget_ms = 1'000.0;
  opt.fault_plan.stall_on_batch = interleaved_batch_id(0, 5, w.topologies);

  const auto report = run_service_session(w, opt);
  ASSERT_TRUE(report.ok()) << report.error_message();
  const ServiceStats& s = report.value().stats;
  EXPECT_EQ(s.quarantined, 1u);
  EXPECT_EQ(s.restarts, 0u);
  EXPECT_EQ(s.lost_in_flight(), 0u);  // quarantined batches are accounted

  // The quarantine record landed in the journal with the taxonomy code.
  const auto contents = robust::read_journal(path + ".shard0");
  ASSERT_TRUE(contents.ok());
  ASSERT_EQ(contents.value().quarantined.size(), 1u);
  const robust::QuarantineRecord& rec =
      contents.value().quarantined.begin()->second;
  EXPECT_EQ(rec.family, "q0");
  EXPECT_EQ(rec.index, 5u);
  EXPECT_EQ(rec.code, robust::ErrorCode::kIterationLimit);
  remove_shard_journals(path, 1);
}

TEST(ServiceSupervision, ResumedSessionRestoresWindowsAndExtendsThem) {
  const std::string path = tmp_journal("resume.ckpt");
  remove_shard_journals(path, 1);

  SessionWorkload w = small_workload();
  w.load.batches_per_topology = 12;
  ServiceOptions opt = small_options();
  opt.journal_path = path;
  const auto first = run_service_session(w, opt);
  ASSERT_TRUE(first.ok()) << first.error_message();
  ASSERT_EQ(first.value().windows_by_topology[0].size(), 3u);

  // Same workload, resumed: the ack cursors are already at the end, so the
  // producers offer nothing and the decisions are purely journal-restored.
  ServiceOptions resume = opt;
  resume.resume = true;
  const auto replay = run_service_session(w, resume);
  ASSERT_TRUE(replay.ok()) << replay.error_message();
  EXPECT_EQ(replay.value().stats.offered, 0u);
  for (std::size_t t = 0; t < w.topologies; ++t)
    expect_same_decisions(first.value().windows_by_topology[t],
                          replay.value().windows_by_topology[t]);

  // A longer resumed run redelivers from the cursor and extends the series;
  // the overlap stays bitwise identical.
  SessionWorkload longer = w;
  longer.load.batches_per_topology = 16;
  const auto extended = run_service_session(longer, resume);
  ASSERT_TRUE(extended.ok()) << extended.error_message();
  for (std::size_t t = 0; t < w.topologies; ++t) {
    const auto& ext = extended.value().windows_by_topology[t];
    ASSERT_EQ(ext.size(), 4u);
    expect_same_decisions(
        first.value().windows_by_topology[t],
        {ext.begin(), ext.begin() + 3});
  }
  remove_shard_journals(path, 1);
}

#if !defined(SCAPEGOAT_NO_FORK_TESTS)
TEST(ServiceSupervision, SigkilledServiceResumesToIdenticalWindows) {
  SessionWorkload w = small_workload();
  w.load.batches_per_topology = 48;
  ServiceOptions opt = small_options();

  // Uninterrupted reference run, no journal involved.
  const auto baseline = run_service_session(w, opt);
  ASSERT_TRUE(baseline.ok()) << baseline.error_message();
  ASSERT_EQ(baseline.value().windows_by_topology[0].size(), 12u);

  const std::string path = tmp_journal("sigkill.ckpt");
  remove_shard_journals(path, 1);
  ServiceOptions killed = opt;
  killed.journal_path = path;
  killed.resume = true;

  // SIGKILL whole service processes at staggered points; each later child
  // resumes whatever journal state (possibly a torn tail) the previous one
  // left behind.
  const useconds_t kill_after_us[] = {10'000, 30'000, 80'000};
  for (const useconds_t delay : kill_after_us) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: run the journaled session; _exit skips all cleanup so even a
      // child that finished looks like a crash to the parent.
      run_service_session(w, killed);
      _exit(0);
    }
    ::usleep(delay);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  }

  // One clean resume completes the stream; the redelivered batches are
  // regenerated bit-identically by the pure load generator, so the window
  // series must equal the uninterrupted run's, alarm flags and residual bit
  // patterns included.
  const auto resumed = run_service_session(w, killed);
  ASSERT_TRUE(resumed.ok()) << resumed.error_message();
  EXPECT_FALSE(resumed.value().interrupted);
  EXPECT_EQ(resumed.value().stats.lost_in_flight(), 0u);
  for (std::size_t t = 0; t < w.topologies; ++t)
    expect_same_decisions(baseline.value().windows_by_topology[t],
                          resumed.value().windows_by_topology[t]);
  remove_shard_journals(path, 1);
}
#endif  // !SCAPEGOAT_NO_FORK_TESTS

}  // namespace
}  // namespace scapegoat::service
