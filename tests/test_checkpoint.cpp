// Crash-safety tests: the CRC-framed checkpoint journal, watchdog budgets,
// trial quarantine, and the kill/resume determinism contract of the
// experiment runners.
//
// The expensive end-to-end cases run the Fig. 7/Fig. 9/fault-sweep runners
// and the defender/loss ablations at tiny sizes and assert that any interleaving of interrupted sessions —
// new-trial quotas, an in-process shutdown request, a SIGKILL'd child
// process, a torn journal tail — resumes to a series bitwise identical to
// an uninterrupted run, at every thread count tried.

#include "robust/checkpoint.hpp"

#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "core/defender_ablation.hpp"
#include "core/experiment.hpp"
#include "core/fault_experiment.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "robust/retry.hpp"
#include "robust/watchdog.hpp"
#include "testkit/golden.hpp"
#include "util/atomic_file.hpp"

// fork() + worker threads is undefined under TSan; the kill/resume test is
// compiled out there (the quota/shutdown tests cover the same resume logic
// in-process).
#if defined(__SANITIZE_THREAD__)
#define SCAPEGOAT_NO_FORK_TESTS 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define SCAPEGOAT_NO_FORK_TESTS 1
#endif
#endif

namespace scapegoat {
namespace {

using robust::Budget;
using robust::CheckpointJournal;
using robust::ConfigHasher;
using robust::QuarantineRecord;
using robust::ResilienceOptions;
using robust::TrialRecord;
using robust::Watchdog;

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + "ckpt_test_" + name;
}

void remove_journal(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".manifest").c_str());
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::string out((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
  return out;
}

void dump(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << contents;
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

// ------------------------------------------------------------ primitives --

TEST(Crc32, KnownAnswers) {
  // The canonical IEEE 802.3 check value.
  EXPECT_EQ(robust::crc32("123456789"), 0xcbf43926u);
  EXPECT_EQ(robust::crc32(""), 0u);
  EXPECT_NE(robust::crc32("a"), robust::crc32("b"));
}

TEST(BitCodecs, DoubleRoundTripIsBitwise) {
  const double values[] = {0.0,
                           -0.0,
                           1.5,
                           -1e300,
                           5e-324,  // smallest denormal
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN()};
  for (const double v : values) {
    const std::string hex = robust::encode_double_bits(v);
    EXPECT_EQ(hex.size(), 16u);
    const auto back = robust::decode_double_bits(hex);
    ASSERT_TRUE(back.has_value()) << hex;
    EXPECT_TRUE(bits_equal(v, *back)) << hex;
  }
  EXPECT_FALSE(robust::decode_double_bits("").has_value());
  EXPECT_FALSE(robust::decode_double_bits("123").has_value());
  EXPECT_FALSE(robust::decode_double_bits("zzzzzzzzzzzzzzzz").has_value());
}

TEST(BitCodecs, U64HexRoundTrip) {
  for (const std::uint64_t v :
       {0ull, 1ull, 0xdeadbeefull, ~0ull, 0x8000000000000000ull}) {
    EXPECT_EQ(robust::decode_u64_hex(robust::encode_u64_hex(v)), v);
  }
  EXPECT_FALSE(robust::decode_u64_hex("").has_value());
  EXPECT_FALSE(robust::decode_u64_hex("12345678901234567").has_value());
  EXPECT_FALSE(robust::decode_u64_hex("xy").has_value());
}

TEST(ConfigHasherTest, OrderAndTypeSensitive) {
  const auto h = [](auto&&... parts) {
    ConfigHasher hasher;
    (hasher.mix(parts), ...);
    return hasher.hash();
  };
  EXPECT_EQ(h(std::uint64_t{1}, std::uint64_t{2}),
            h(std::uint64_t{1}, std::uint64_t{2}));
  EXPECT_NE(h(std::uint64_t{1}, std::uint64_t{2}),
            h(std::uint64_t{2}, std::uint64_t{1}));
  EXPECT_NE(h(std::string_view{"ab"}), h(std::string_view{"ba"}));
  // "a" then "b" must differ from "ab" then "" (length prefixing).
  EXPECT_NE(h(std::string_view{"a"}, std::string_view{"b"}),
            h(std::string_view{"ab"}, std::string_view{""}));
  EXPECT_NE(h(1.0), h(-1.0));
}

// --------------------------------------------------------- journal format --

TEST(JournalIo, MissingFileIsEmptyJournal) {
  const auto loaded = robust::read_journal(tmp_path("does_not_exist.ckpt"));
  ASSERT_TRUE(loaded.ok());
  EXPECT_TRUE(loaded->trials.empty());
  EXPECT_EQ(loaded->dropped_lines, 0u);
  EXPECT_EQ(loaded->valid_bytes, 0u);
}

TEST(JournalIo, RoundTripsTrialAndQuarantineRecords) {
  const std::string path = tmp_path("roundtrip.ckpt");
  TrialRecord t;
  t.family = "trial";
  t.index = 42;
  t.seed = 0x1234;
  t.payload = "7:3:1 with \"quotes\"\nand newline\tand tab";
  QuarantineRecord q;
  q.family = "perfect";
  q.index = 7;
  q.seed = 99;
  q.code = robust::ErrorCode::kIterationLimit;
  q.message = "trial watchdog budget expired";
  q.attempts = 2;
  dump(path, robust::encode_journal_line(t) + robust::encode_journal_line(q));

  const auto loaded = robust::read_journal(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dropped_lines, 0u);
  ASSERT_EQ(loaded->trials.size(), 1u);
  const TrialRecord& rt = loaded->trials.begin()->second;
  EXPECT_EQ(rt.family, t.family);
  EXPECT_EQ(rt.index, t.index);
  EXPECT_EQ(rt.seed, t.seed);
  EXPECT_EQ(rt.payload, t.payload);
  ASSERT_EQ(loaded->quarantined.size(), 1u);
  const QuarantineRecord& rq = loaded->quarantined.begin()->second;
  EXPECT_EQ(rq.family, q.family);
  EXPECT_EQ(rq.index, q.index);
  EXPECT_EQ(rq.code, q.code);
  EXPECT_EQ(rq.message, q.message);
  EXPECT_EQ(rq.attempts, q.attempts);
  std::remove(path.c_str());
}

TEST(JournalIo, TornTailIsDroppedAndValidPrefixReported) {
  const std::string path = tmp_path("torn.ckpt");
  TrialRecord t;
  t.family = "trial";
  t.payload = "1:2:3";
  t.index = 0;
  std::string good;
  good += robust::encode_journal_line(t);
  t.index = 1;
  good += robust::encode_journal_line(t);
  t.index = 2;
  const std::string third = robust::encode_journal_line(t);
  // Simulate a crash mid-append: the third line is cut short, no newline.
  dump(path, good + third.substr(0, third.size() / 2));

  const auto loaded = robust::read_journal(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->trials.size(), 2u);
  EXPECT_EQ(loaded->dropped_lines, 1u);
  EXPECT_EQ(loaded->valid_bytes, good.size());
  std::remove(path.c_str());
}

TEST(JournalIo, CorruptMidFileLineEndsTheAppendPrefix) {
  const std::string path = tmp_path("corrupt_mid.ckpt");
  TrialRecord t;
  t.family = "trial";
  t.payload = "x";
  t.index = 0;
  const std::string l0 = robust::encode_journal_line(t);
  t.index = 1;
  std::string l1 = robust::encode_journal_line(t);
  t.index = 2;
  const std::string l2 = robust::encode_journal_line(t);
  // Flip one payload byte in the middle line: CRC must reject it.
  l1[l1.size() / 2] ^= 0x01;
  dump(path, l0 + l1 + l2);

  const auto loaded = robust::read_journal(path);
  ASSERT_TRUE(loaded.ok());
  // Records after the corruption are still accepted (keyed, order-free)...
  EXPECT_EQ(loaded->trials.size(), 2u);
  EXPECT_EQ(loaded->dropped_lines, 1u);
  // ...but the truncation point for future appends is before the bad line.
  EXPECT_EQ(loaded->valid_bytes, l0.size());
  std::remove(path.c_str());
}

// -------------------------------------------------------- journal session --

TEST(CheckpointJournalTest, OpenAppendResumeFinds) {
  const std::string path = tmp_path("session.ckpt");
  remove_journal(path);
  {
    auto journal = CheckpointJournal::open(path, "exp", 0xabcdull, false);
    ASSERT_TRUE(journal.ok()) << journal.error_message();
    EXPECT_FALSE((*journal)->info().resumed);
    TrialRecord t{"trial", 3, 17, "payload"};
    (*journal)->append(t);
    QuarantineRecord q{"trial", 4, 18, robust::ErrorCode::kIterationLimit,
                       "budget", 2};
    (*journal)->append(q);
    // Duplicate keys are skipped — replay never duplicates a line.
    (*journal)->append(t);
  }  // destructor flushes
  {
    auto journal = CheckpointJournal::open(path, "exp", 0xabcdull, true);
    ASSERT_TRUE(journal.ok());
    EXPECT_TRUE((*journal)->info().resumed);
    EXPECT_EQ((*journal)->info().prior_trials, 1u);
    EXPECT_EQ((*journal)->info().prior_quarantined, 1u);
    const TrialRecord* found = (*journal)->find("trial", 3);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->seed, 17u);
    EXPECT_EQ(found->payload, "payload");
    EXPECT_EQ((*journal)->find("trial", 99), nullptr);
    const QuarantineRecord* foundq = (*journal)->find_quarantined("trial", 4);
    ASSERT_NE(foundq, nullptr);
    EXPECT_EQ(foundq->attempts, 2u);
  }
  remove_journal(path);
}

TEST(CheckpointJournalTest, ManifestMismatchFallsBackToFreshJournal) {
  const std::string path = tmp_path("mismatch.ckpt");
  remove_journal(path);
  {
    auto journal = CheckpointJournal::open(path, "exp", 1, false);
    ASSERT_TRUE(journal.ok());
    (*journal)->append(TrialRecord{"trial", 0, 0, "p"});
  }
  {
    // Different config hash: the journal must not feed stale trials.
    auto journal = CheckpointJournal::open(path, "exp", 2, true);
    ASSERT_TRUE(journal.ok());
    EXPECT_FALSE((*journal)->info().resumed);
    EXPECT_FALSE((*journal)->info().note.empty());
    EXPECT_EQ((*journal)->find("trial", 0), nullptr);
  }
  {
    // Different experiment name, same effect.
    auto journal = CheckpointJournal::open(path, "other", 2, true);
    ASSERT_TRUE(journal.ok());
    EXPECT_FALSE((*journal)->info().resumed);
  }
  remove_journal(path);
}

TEST(CheckpointJournalTest, ResumeTruncatesTornTailThenAppendsCleanly) {
  const std::string path = tmp_path("truncate.ckpt");
  remove_journal(path);
  {
    auto journal = CheckpointJournal::open(path, "exp", 5, false);
    ASSERT_TRUE(journal.ok());
    (*journal)->append(TrialRecord{"trial", 0, 10, "a"});
    (*journal)->append(TrialRecord{"trial", 1, 11, "b"});
  }
  // Crash mid-append: chop bytes off the tail.
  const std::string full = slurp(path);
  dump(path, full.substr(0, full.size() - 5));
  {
    auto journal = CheckpointJournal::open(path, "exp", 5, true);
    ASSERT_TRUE(journal.ok());
    EXPECT_TRUE((*journal)->info().resumed);
    EXPECT_EQ((*journal)->info().prior_trials, 1u);
    EXPECT_EQ((*journal)->info().dropped_lines, 1u);
    (*journal)->append(TrialRecord{"trial", 1, 11, "b"});
    (*journal)->flush();
  }
  // After the truncate + re-append the journal is fully valid again.
  const auto loaded = robust::read_journal(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->dropped_lines, 0u);
  EXPECT_EQ(loaded->trials.size(), 2u);
  remove_journal(path);
}

// ------------------------------------------------------ watchdog & budget --

TEST(WatchdogTest, DisarmedAndUnlimitedNeverExpire) {
  EXPECT_TRUE(Budget{}.unlimited());
  Watchdog disarmed;
  EXPECT_FALSE(disarmed.armed());
  EXPECT_FALSE(disarmed.expired());
  EXPECT_EQ(disarmed.remaining_ms(),
            std::numeric_limits<double>::infinity());
  Watchdog unlimited{Budget{}};
  EXPECT_FALSE(unlimited.armed());
  EXPECT_FALSE(unlimited.expired(1u << 30));
}

TEST(WatchdogTest, IterationBudgetExpiresPastTheLimit) {
  Watchdog dog{Budget{0.0, 10}};
  EXPECT_TRUE(dog.armed());
  EXPECT_FALSE(dog.expired(10));
  EXPECT_TRUE(dog.expired(11));
}

TEST(WatchdogTest, TinyWallBudgetExpires) {
  Watchdog dog{Budget{1e-7, 0}};
  // Burn a little time; 100 ns of wall budget cannot survive it.
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i)
    sink = sink + std::sqrt(static_cast<double>(i));
  EXPECT_TRUE(dog.expired());
  EXPECT_EQ(dog.remaining_ms(), 0.0);
}

TEST(WatchdogTest, ScopedTrialDeadlineNestsAndRestores) {
  EXPECT_EQ(robust::ScopedTrialDeadline::current(), nullptr);
  Watchdog outer{Budget{1e9, 0}};
  {
    robust::ScopedTrialDeadline a(&outer);
    EXPECT_EQ(robust::ScopedTrialDeadline::current(), &outer);
    Watchdog inner{Budget{1e9, 0}};
    {
      robust::ScopedTrialDeadline b(&inner);
      EXPECT_EQ(robust::ScopedTrialDeadline::current(), &inner);
      {
        // nullptr explicitly clears the ambient deadline for a scope.
        robust::ScopedTrialDeadline c(nullptr);
        EXPECT_EQ(robust::ScopedTrialDeadline::current(), nullptr);
      }
      EXPECT_EQ(robust::ScopedTrialDeadline::current(), &inner);
    }
    EXPECT_EQ(robust::ScopedTrialDeadline::current(), &outer);
    // A disarmed watchdog never becomes the ambient deadline.
    Watchdog disarmed;
    robust::ScopedTrialDeadline d(&disarmed);
    EXPECT_EQ(robust::ScopedTrialDeadline::current(), nullptr);
  }
  EXPECT_EQ(robust::ScopedTrialDeadline::current(), nullptr);
}

TEST(WatchdogTest, ShutdownFlagRequestAndReset) {
  robust::reset_shutdown();
  EXPECT_FALSE(robust::shutdown_requested());
  robust::request_shutdown();
  EXPECT_TRUE(robust::shutdown_requested());
  robust::reset_shutdown();
  EXPECT_FALSE(robust::shutdown_requested());
}

TEST(RetryPolicyTest, BackoffSaturatesInsteadOfOverflowing) {
  robust::RetryPolicy policy;
  policy.backoff_base_ms = 10.0;
  policy.backoff_factor = 2.0;
  policy.max_backoff_ms = 60'000.0;
  // 2^10000 overflows double; the curve must cap, not go inf/NaN.
  EXPECT_EQ(policy.backoff_before(10'000), policy.max_backoff_ms);
  EXPECT_TRUE(std::isfinite(policy.backoff_before(1'000'000)));
  policy.probe_deadline_ms = 5.0;
  EXPECT_EQ(policy.deadline_for(10'000), policy.max_backoff_ms);
}

TEST(RetryPolicyTest, BackoffClampsToRemainingDeadline) {
  robust::RetryPolicy policy;
  policy.backoff_base_ms = 10.0;
  policy.backoff_factor = 2.0;
  const double unclamped = policy.backoff_before(3);  // 80 ms
  EXPECT_EQ(policy.backoff_before(3, 5.0), 5.0);
  EXPECT_EQ(policy.backoff_before(3, 0.0), 0.0);
  // Negative = "no overall deadline": the clamp is a no-op.
  EXPECT_EQ(policy.backoff_before(3, -1.0), unclamped);
  EXPECT_EQ(policy.backoff_before(3, 1e9), unclamped);
}

TEST(SimplexWatchdog, ExpiredBudgetReturnsTimeLimitWithBasis) {
  lp::Model m(lp::Sense::kMaximize);
  const auto x = m.add_variable(0, lp::kInfinity, 3.0, "x");
  const auto y = m.add_variable(0, lp::kInfinity, 2.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, -lp::kInfinity, 4.0);
  m.add_constraint({{x, 1.0}, {y, 3.0}}, -lp::kInfinity, 6.0);

  // The ambient trial deadline is the solver's one wall budget.
  Watchdog expired{Budget{1e-7, 0}};
  volatile double sink = 0.0;
  for (int i = 0; i < 10000; ++i) sink = sink + static_cast<double>(i);
  ASSERT_TRUE(expired.expired());
  {
    robust::ScopedTrialDeadline scope(&expired);
    const lp::Solution timed_out = lp::solve(m);
    EXPECT_EQ(timed_out.status, lp::SolveStatus::kTimeLimit);
    EXPECT_FALSE(timed_out.basis.empty());  // exit certificate
  }
  EXPECT_EQ(lp::solve(m).status, lp::SolveStatus::kOptimal);
}

TEST(AtomicFileTest, WriteCreatesAndReplaces) {
  const std::string path = tmp_path("atomic.txt");
  std::remove(path.c_str());
  ASSERT_TRUE(write_file_atomic(path, "first").ok());
  EXPECT_EQ(slurp(path), "first");
  ASSERT_TRUE(write_file_atomic(path, "second, longer contents").ok());
  EXPECT_EQ(slurp(path), "second, longer contents");
  std::remove(path.c_str());
}

// ------------------------------------------- experiment-level kill/resume --

PresenceRatioOptions small_fig7() {
  PresenceRatioOptions opt;
  opt.topologies = 2;
  opt.trials_per_topology = 24;
  opt.seed = 4242;
  opt.threads = 1;
  return opt;
}

void expect_fig7_equal(const PresenceRatioSeries& a,
                       const PresenceRatioSeries& b) {
  EXPECT_EQ(a.total_trials, b.total_trials);
  EXPECT_EQ(a.trials_quarantined, b.trials_quarantined);
  ASSERT_EQ(a.bins.size(), b.bins.size());
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    EXPECT_EQ(a.bins[i].trials, b.bins[i].trials) << "bin " << i;
    EXPECT_EQ(a.bins[i].successes, b.bins[i].successes) << "bin " << i;
  }
}

// Resumes `opt` (sessions stop on a new-trial quota) until a session runs to
// completion, cycling worker counts; yields the completed series and the
// number of sessions it took.
void resume_until_complete(PresenceRatioOptions opt, PresenceRatioSeries* out,
                           std::size_t* sessions_out) {
  const std::size_t thread_cycle[] = {2, 4, 1, 8};
  std::size_t sessions = 0;
  do {
    opt.threads = thread_cycle[sessions % 4];
    *out = run_presence_ratio_experiment(TopologyKind::kWireline, opt);
    ASSERT_LT(++sessions, 20u) << "resume loop is not converging";
  } while (out->interrupted);
  if (sessions_out != nullptr) *sessions_out = sessions;
}

TEST(CheckpointExperiment, JournalingDoesNotChangeTheSeries) {
  const std::string path = tmp_path("fig7_journal.ckpt");
  remove_journal(path);
  PresenceRatioOptions opt = small_fig7();
  const PresenceRatioSeries baseline =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);

  opt.resilience.checkpoint_path = path;
  opt.threads = 4;
  const PresenceRatioSeries journaled =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  expect_fig7_equal(baseline, journaled);
  EXPECT_EQ(journaled.trials_replayed, 0u);
  EXPECT_FALSE(journaled.interrupted);

  // A full replay recomputes nothing and folds identically.
  opt.resilience.resume = true;
  const PresenceRatioSeries replayed =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  expect_fig7_equal(baseline, replayed);
  // Every journaled trial replays — including the uncounted ones (no viable
  // attacker placement) that never reach a bin, so compare against the raw
  // trial count, not total_trials.
  EXPECT_EQ(replayed.trials_replayed, opt.topologies * opt.trials_per_topology);
  remove_journal(path);
}

TEST(CheckpointExperiment, QuotaInterruptedSessionsResumeToIdenticalSeries) {
  const std::string path = tmp_path("fig7_quota.ckpt");
  remove_journal(path);
  const PresenceRatioSeries baseline =
      run_presence_ratio_experiment(TopologyKind::kWireline, small_fig7());

  PresenceRatioOptions opt = small_fig7();
  opt.resilience.checkpoint_path = path;
  opt.resilience.resume = true;
  opt.resilience.stop_after_new_trials = 15;  // < one topology block
  std::size_t sessions = 0;
  PresenceRatioSeries resumed;
  resume_until_complete(opt, &resumed, &sessions);
  EXPECT_GE(sessions, 2u);  // the quota really did interrupt
  expect_fig7_equal(baseline, resumed);
  EXPECT_EQ(resumed.trials_replayed, opt.topologies * opt.trials_per_topology);
  remove_journal(path);
}

TEST(CheckpointExperiment, ShutdownRequestInterruptsResumably) {
  const std::string path = tmp_path("fig7_shutdown.ckpt");
  remove_journal(path);
  const PresenceRatioSeries baseline =
      run_presence_ratio_experiment(TopologyKind::kWireline, small_fig7());

  PresenceRatioOptions opt = small_fig7();
  opt.resilience.checkpoint_path = path;
  opt.resilience.resume = true;
  robust::request_shutdown();  // the programmatic SIGINT/SIGTERM
  const PresenceRatioSeries stopped =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  robust::reset_shutdown();
  EXPECT_TRUE(stopped.interrupted);
  EXPECT_LT(stopped.total_trials, baseline.total_trials);

  const PresenceRatioSeries resumed =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  EXPECT_FALSE(resumed.interrupted);
  expect_fig7_equal(baseline, resumed);
  EXPECT_GT(resumed.trials_replayed, 0u);
  remove_journal(path);
}

TEST(CheckpointExperiment, TornJournalTailRecomputesTheLostTrials) {
  const std::string path = tmp_path("fig7_torn.ckpt");
  remove_journal(path);
  PresenceRatioOptions opt = small_fig7();
  const PresenceRatioSeries baseline =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);

  opt.resilience.checkpoint_path = path;
  run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  // Crash simulation: tear the last journal line mid-write.
  const std::string full = slurp(path);
  ASSERT_GT(full.size(), 10u);
  dump(path, full.substr(0, full.size() - 10));

  opt.resilience.resume = true;
  const PresenceRatioSeries resumed =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  expect_fig7_equal(baseline, resumed);
  EXPECT_GT(resumed.trials_replayed, 0u);
  EXPECT_LT(resumed.trials_replayed, opt.topologies * opt.trials_per_topology);
  remove_journal(path);
}

TEST(CheckpointExperiment, QuarantineIsCountedAndStickyAcrossResume) {
  const std::string path = tmp_path("fig7_quarantine.ckpt");
  remove_journal(path);
  PresenceRatioOptions opt = small_fig7();
  opt.topologies = 1;
  opt.trials_per_topology = 6;
  opt.resilience.checkpoint_path = path;
  opt.resilience.resume = true;
  // 100 ns of wall budget: every attempt expires, every trial quarantines
  // after the default retry.
  opt.resilience.trial_budget.wall_ms = 1e-7;
  const PresenceRatioSeries starved =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  EXPECT_EQ(starved.trials_quarantined, 6u);
  EXPECT_EQ(starved.total_trials, 0u);  // excluded from every aggregate
  for (const PresenceRatioBin& b : starved.bins) EXPECT_EQ(b.trials, 0u);

  // Quarantine records carry the attempt count (1 + kTrialRetries).
  const auto journal = robust::read_journal(path);
  ASSERT_TRUE(journal.ok());
  EXPECT_EQ(journal->quarantined.size(), 6u);
  for (const auto& [key, record] : journal->quarantined) {
    EXPECT_EQ(record.attempts, 1 + robust::kTrialRetries);
    EXPECT_EQ(record.code, robust::ErrorCode::kIterationLimit);
  }

  // A poisoned trial stays quarantined on resume even with the budget
  // lifted — never silently recomputed, never silently dropped.
  opt.resilience.trial_budget = Budget{};
  const PresenceRatioSeries resumed =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  EXPECT_EQ(resumed.trials_quarantined, 6u);
  EXPECT_EQ(resumed.total_trials, 0u);
  EXPECT_EQ(resumed.trials_replayed, 0u);
  remove_journal(path);
}

TEST(CheckpointExperiment, FaultSweepResumesBitwiseIdentically) {
  const std::string path = tmp_path("sweep.ckpt");
  remove_journal(path);
  FaultSweepOptions opt;
  opt.topologies = 1;
  opt.trials_per_topology = 8;
  opt.loss_rates = {0.0, 0.05};
  opt.seed = 333;
  opt.threads = 2;
  const FaultSweepSeries baseline = run_fault_sweep(TopologyKind::kWireline, opt);

  opt.resilience.checkpoint_path = path;
  opt.resilience.resume = true;
  opt.resilience.stop_after_new_trials = 5;  // < one (cell, topology) block
  const std::size_t thread_cycle[] = {4, 1, 2, 8};
  FaultSweepSeries resumed;
  std::size_t sessions = 0;
  do {
    opt.threads = thread_cycle[sessions % 4];
    resumed = run_fault_sweep(TopologyKind::kWireline, opt);
    ASSERT_LT(++sessions, 20u) << "resume loop is not converging";
  } while (resumed.interrupted);
  EXPECT_GE(sessions, 2u);

  EXPECT_EQ(resumed.total_trials, baseline.total_trials);
  EXPECT_EQ(resumed.trials_quarantined, baseline.trials_quarantined);
  ASSERT_EQ(resumed.cells.size(), baseline.cells.size());
  for (std::size_t i = 0; i < baseline.cells.size(); ++i) {
    const FaultSweepCell& a = baseline.cells[i];
    const FaultSweepCell& b = resumed.cells[i];
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.full_rank, b.full_rank);
    EXPECT_EQ(a.fallback, b.fallback);
    EXPECT_EQ(a.unsolvable, b.unsolvable);
    EXPECT_EQ(a.paths_total, b.paths_total);
    EXPECT_EQ(a.paths_measured, b.paths_measured);
    EXPECT_EQ(a.alarms, b.alarms);
    // The replay payload carries doubles as IEEE bit patterns; the folded
    // error statistics must come back bitwise identical, not merely close.
    EXPECT_TRUE(bits_equal(a.mean_abs_error_ms, b.mean_abs_error_ms)) << i;
    EXPECT_TRUE(bits_equal(a.max_abs_error_ms, b.max_abs_error_ms)) << i;
  }
  remove_journal(path);
}

TEST(CheckpointExperiment, DetectionExperimentResumesIdentically) {
  const std::string path = tmp_path("fig9.ckpt");
  remove_journal(path);
  DetectionOptionsExperiment opt;
  opt.topologies = 1;
  opt.successful_attacks_per_cell = 3;
  opt.max_trials_per_cell = 60;
  opt.seed = 77;
  opt.threads = 2;
  const DetectionSeries baseline =
      run_detection_experiment(TopologyKind::kWireline, opt);

  opt.resilience.checkpoint_path = path;
  opt.resilience.resume = true;
  opt.resilience.stop_after_new_trials = 25;
  const std::size_t thread_cycle[] = {1, 4, 2, 8};
  DetectionSeries resumed;
  std::size_t sessions = 0;
  do {
    opt.threads = thread_cycle[sessions % 4];
    resumed = run_detection_experiment(TopologyKind::kWireline, opt);
    ASSERT_LT(++sessions, 30u) << "resume loop is not converging";
  } while (resumed.interrupted);
  EXPECT_GE(sessions, 2u);

  EXPECT_EQ(resumed.clean_trials, baseline.clean_trials);
  EXPECT_EQ(resumed.false_alarms, baseline.false_alarms);
  EXPECT_EQ(resumed.trials_quarantined, baseline.trials_quarantined);
  ASSERT_EQ(resumed.cells.size(), baseline.cells.size());
  for (std::size_t i = 0; i < baseline.cells.size(); ++i) {
    EXPECT_EQ(resumed.cells[i].strategy, baseline.cells[i].strategy) << i;
    EXPECT_EQ(resumed.cells[i].perfect_cut, baseline.cells[i].perfect_cut) << i;
    EXPECT_EQ(resumed.cells[i].attacks, baseline.cells[i].attacks) << i;
    EXPECT_EQ(resumed.cells[i].detected, baseline.cells[i].detected) << i;
  }
  remove_journal(path);
}

// ---------------------------------------------------------- ablations --

DefenderAblationOptions small_defender_ablation() {
  DefenderAblationOptions opt;
  opt.topologies = 2;
  opt.trials_per_cell = 2;
  opt.clean_trials = 1;
  opt.anomaly_sparsity = {1};
  opt.defender_epsilons_ms = {0.0, 10.0};
  opt.families = {AttackFamily::kUnrestricted, AttackFamily::kConsistent};
  opt.threads = 2;
  return opt;
}

LossAblationOptions small_loss_ablation() {
  LossAblationOptions opt;
  opt.topologies = 2;
  opt.trials_per_cell = 2;
  opt.clean_trials = 2;
  opt.probes = 400;
  opt.drop_rates = {0.2};
  opt.threads = 1;
  return opt;
}

TEST(CheckpointExperiment, LossAblationQuotaSessionsResumeBitwise) {
  const std::string path = tmp_path("loss_ablation.ckpt");
  remove_journal(path);
  LossAblationOptions opt = small_loss_ablation();
  const LossAblationSeries baseline = run_loss_ablation(opt);

  opt.resilience.checkpoint_path = path;
  opt.resilience.resume = true;
  opt.resilience.stop_after_new_trials = 3;  // < one topology's blocks
  const std::size_t thread_cycle[] = {4, 1, 2, 8};
  LossAblationSeries resumed;
  std::size_t sessions = 0;
  do {
    opt.threads = thread_cycle[sessions % 4];
    resumed = run_loss_ablation(opt);
    ASSERT_LT(++sessions, 30u) << "resume loop is not converging";
  } while (resumed.interrupted);
  EXPECT_GE(sessions, 2u);
  EXPECT_GT(resumed.trials_replayed, 0u);
  EXPECT_EQ(testkit::fingerprint(resumed), testkit::fingerprint(baseline));
  EXPECT_EQ(resumed.total_trials, baseline.total_trials);
  EXPECT_EQ(resumed.clean_trials, baseline.clean_trials);
  remove_journal(path);
}

// Every swept vector is part of the config hash: a journal written under one
// sweep is recomputed, never replayed, under another.
TEST(CheckpointExperiment, AblationSweepChangesInvalidateTheJournal) {
  const std::string path = tmp_path("ablation_hash.ckpt");

  auto defender_replays = [&](const DefenderAblationOptions& changed) {
    remove_journal(path);
    DefenderAblationOptions opt = small_defender_ablation();
    opt.topologies = 1;
    opt.resilience.checkpoint_path = path;
    opt.resilience.resume = true;
    run_defender_ablation(opt);
    DefenderAblationOptions next = changed;
    next.topologies = 1;
    next.resilience = opt.resilience;
    return run_defender_ablation(next).trials_replayed;
  };
  DefenderAblationOptions same = small_defender_ablation();
  EXPECT_EQ(defender_replays(same), 1u + 2u * 2u);  // the control replays
  DefenderAblationOptions eps = small_defender_ablation();
  eps.defender_epsilons_ms = {0.0, 20.0};
  EXPECT_EQ(defender_replays(eps), 0u);
  DefenderAblationOptions fams = small_defender_ablation();
  fams.families = {AttackFamily::kConsistent, AttackFamily::kUnrestricted};
  EXPECT_EQ(defender_replays(fams), 0u);

  auto loss_replays = [&](const LossAblationOptions& changed) {
    remove_journal(path);
    LossAblationOptions opt = small_loss_ablation();
    opt.resilience.checkpoint_path = path;
    opt.resilience.resume = true;
    run_loss_ablation(opt);
    LossAblationOptions next = changed;
    next.resilience = opt.resilience;
    return run_loss_ablation(next).trials_replayed;
  };
  const LossAblationOptions base = small_loss_ablation();
  EXPECT_EQ(loss_replays(base),
            base.topologies * (base.clean_trials + 2 * base.trials_per_cell));
  LossAblationOptions rates = small_loss_ablation();
  rates.drop_rates = {0.3};
  EXPECT_EQ(loss_replays(rates), 0u);
  LossAblationOptions mode = small_loss_ablation();
  mode.probe_mode = simnet::ProbeMode::kUnicast;
  EXPECT_EQ(loss_replays(mode), 0u);
  remove_journal(path);
}

// The config hash a manifest records, as hex ("" when unreadable).
std::string manifest_config_hex(const std::string& journal_path) {
  std::ifstream in(journal_path + ".manifest");
  std::string word;
  while (in >> word)
    if (word == "config" && in >> word) return word;
  return "";
}

// Journals written by earlier builds must keep resuming: each manifest's
// config hash is pinned to the value those builds wrote for the same
// options. A change that mixes a different value (or a value of a
// different type) into a config hash breaks this on purpose.
TEST(CheckpointExperiment, ManifestConfigHashesArePinned) {
  const std::string path = tmp_path("pinned_hash.ckpt");

  remove_journal(path);
  PresenceRatioOptions fig7 = small_fig7();
  fig7.resilience.checkpoint_path = path;
  fig7.resilience.stop_after_new_trials = 1;
  run_presence_ratio_experiment(TopologyKind::kWireline, fig7);
  EXPECT_EQ(manifest_config_hex(path), "f91b50ca07d8e4b3");

  remove_journal(path);
  SingleAttackerOptions fig8;
  fig8.topologies = 1;
  fig8.trials_per_topology = 6;
  fig8.seed = 99;
  fig8.resilience.checkpoint_path = path;
  fig8.resilience.stop_after_new_trials = 1;
  run_single_attacker_experiment(TopologyKind::kWireline, fig8);
  EXPECT_EQ(manifest_config_hex(path), "8a3dc9329999c1ad");

  remove_journal(path);
  LossAblationOptions loss = small_loss_ablation();
  loss.resilience.checkpoint_path = path;
  loss.resilience.stop_after_new_trials = 1;
  run_loss_ablation(loss);
  EXPECT_EQ(manifest_config_hex(path), "6ad0f84c6798880a");
  remove_journal(path);
}

#if !defined(SCAPEGOAT_NO_FORK_TESTS)
TEST(CheckpointExperiment, SigkilledDefenderAblationResumesToIdenticalSeries) {
  const std::string path = tmp_path("ablation_sigkill.ckpt");
  remove_journal(path);
  DefenderAblationOptions opt = small_defender_ablation();
  const AblationSeries baseline = run_defender_ablation(opt);

  opt.resilience.checkpoint_path = path;
  opt.resilience.resume = true;
  // Same scheme as the Fig. 7 case below, with delays stretched to the
  // ablation's per-topology cost (topology draw plus sparse-defender panel).
  const useconds_t kill_after_us[] = {300'000, 1'200'000, 2'500'000};
  for (const useconds_t delay : kill_after_us) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      run_defender_ablation(opt);
      _exit(0);
    }
    ::usleep(delay);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  }

  const AblationSeries resumed = run_defender_ablation(opt);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(testkit::fingerprint(resumed), testkit::fingerprint(baseline));
  remove_journal(path);
}

TEST(CheckpointExperiment, SigkilledSessionsResumeToIdenticalSeries) {
  const std::string path = tmp_path("fig7_sigkill.ckpt");
  remove_journal(path);
  PresenceRatioOptions opt = small_fig7();
  const PresenceRatioSeries baseline =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);

  opt.resilience.checkpoint_path = path;
  opt.resilience.resume = true;
  // Kill a child mid-run at staggered points; each later child resumes the
  // journal the previous one left behind (possibly with a torn tail).
  const useconds_t kill_after_us[] = {20'000, 60'000, 150'000};
  for (const useconds_t delay : kill_after_us) {
    const pid_t pid = fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      // Child: run the checkpointed experiment; _exit skips all cleanup so
      // even a child that finishes looks like a crash to the parent.
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
      _exit(0);
    }
    ::usleep(delay);
    ::kill(pid, SIGKILL);
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
  }

  // Whatever state the kills left, one clean resume completes the series.
  const PresenceRatioSeries resumed =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  EXPECT_FALSE(resumed.interrupted);
  expect_fig7_equal(baseline, resumed);
  remove_journal(path);
}
#endif  // !SCAPEGOAT_NO_FORK_TESTS

}  // namespace
}  // namespace scapegoat
