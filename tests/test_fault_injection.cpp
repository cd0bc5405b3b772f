// Chaos harness for the fault-injection layer: probes traverse the packet
// simulator under deterministic fault schedules, retries degrade
// unmeasured paths to missing, and the estimator/detector pipeline must
// survive every sweep cell with a structured status — no aborts, no NaNs,
// bitwise-identical aggregates at 1/2/4/8 worker threads (the seed-split
// contract of DESIGN.md "Threading model" extended to the fault plane).

#include <cmath>
#include <cstddef>

#include <gtest/gtest.h>

#include "core/fault_experiment.hpp"
#include "core/recovery.hpp"
#include "core/scenario.hpp"
#include "core/simulate.hpp"
#include "detect/detector.hpp"
#include "robust/degraded.hpp"
#include "simnet/resilient_probing.hpp"

namespace scapegoat {
namespace {

// ----------------------------------------------------- resilient probing --

TEST(ResilientProbing, FaultFreeRunMeasuresEveryPathExactly) {
  Rng rng(21);
  Scenario sc = Scenario::fig1(rng);
  simnet::NullAdversary honest;
  Rng sim_rng(22);
  simnet::Simulator sim(sc.graph(), link_models(sc), honest, sim_rng);

  robust::FaultInjector no_faults;
  robust::RetryPolicy policy;
  simnet::ResilientProbeStats stats;
  const robust::DegradedMeasurement m = simnet::probe_with_retries(
      sim, sc.estimator().paths(), {}, no_faults, policy, &stats);

  ASSERT_TRUE(m.complete());
  EXPECT_EQ(stats.attempts_used, 1u);  // nothing to retry
  EXPECT_EQ(stats.paths_missing, 0u);
  EXPECT_EQ(stats.probes_lost, 0u);
  const Vector y = sc.clean_measurements();
  for (std::size_t p = 0; p < y.size(); ++p)
    EXPECT_NEAR(m.y[p], y[p], 1e-9) << "path " << p;
}

TEST(ResilientProbing, TotalOutageDegradesToMissingNotGarbage) {
  Rng rng(31);
  Scenario sc = Scenario::fig1(rng);
  simnet::NullAdversary honest;
  Rng sim_rng(32);
  simnet::Simulator sim(sc.graph(), link_models(sc), honest, sim_rng);

  robust::FaultSpec spec;
  spec.probe_loss_rate = 1.0;  // nothing ever arrives
  robust::FaultInjector faults(spec, 5);
  robust::RetryPolicy policy;
  policy.max_retries = 2;
  simnet::ResilientProbeStats stats;
  const robust::DegradedMeasurement m = simnet::probe_with_retries(
      sim, sc.estimator().paths(), {}, faults, policy, &stats);

  EXPECT_EQ(m.num_measured(), 0u);
  EXPECT_EQ(stats.paths_missing, sc.estimator().paths().size());
  EXPECT_EQ(stats.attempts_used, policy.attempts());

  // The estimator reports a structured error, never a crash.
  const auto est = robust::degraded_estimate(sc.estimator().sparse_r(), m);
  ASSERT_FALSE(est.ok());
  EXPECT_EQ(est.code(), robust::ErrorCode::kEmptyInput);
}

TEST(ResilientProbing, RetriesRecoverLossyPaths) {
  Rng rng(41);
  Scenario sc = Scenario::fig1(rng);
  simnet::NullAdversary honest;
  Rng sim_rng(42);
  simnet::Simulator sim(sc.graph(), link_models(sc), honest, sim_rng);

  robust::FaultSpec spec;
  spec.probe_loss_rate = 0.6;  // single probes often vanish
  robust::FaultInjector faults(spec, 17);
  robust::RetryPolicy none;
  none.max_retries = 0;
  robust::RetryPolicy generous;
  generous.max_retries = 4;

  simnet::ResilientProbeStats one_shot, retried;
  const auto m0 = simnet::probe_with_retries(sim, sc.estimator().paths(), {},
                                             faults, none, &one_shot);
  const auto m4 = simnet::probe_with_retries(sim, sc.estimator().paths(), {},
                                             faults, generous, &retried);

  EXPECT_GE(m4.num_measured(), m0.num_measured());
  EXPECT_GT(retried.paths_recovered, 0u);
  EXPECT_EQ(retried.paths_missing + m4.num_measured(),
            sc.estimator().paths().size());
}

TEST(ResilientProbing, ScheduleIsAPureFunctionOfSeeds) {
  // Two independent simulators and probing passes over the same scenario
  // must agree bit for bit: fault fates depend only on (seed, path, probe,
  // round), not on simulator state or call history.
  Rng rng(51);
  Scenario sc = Scenario::fig1(rng);
  robust::FaultSpec spec;
  spec.probe_loss_rate = 0.3;
  spec.duplicate_rate = 0.1;
  spec.clock_jitter_ms = 2.0;
  robust::RetryPolicy policy;
  policy.max_retries = 1;

  auto run_once = [&](std::uint64_t sim_seed) {
    simnet::NullAdversary honest;
    Rng sim_rng(sim_seed);
    simnet::Simulator sim(sc.graph(), link_models(sc), honest, sim_rng);
    robust::FaultInjector faults(spec, 77);
    return simnet::probe_with_retries(sim, sc.estimator().paths(), {}, faults,
                                      policy);
  };

  const auto a = run_once(1000);
  const auto b = run_once(1000);
  ASSERT_EQ(a.measured, b.measured);
  for (std::size_t p = 0; p < a.y.size(); ++p) {
    if (a.measured[p]) {
      EXPECT_EQ(a.y[p], b.y[p]) << "path " << p;
    }
  }
}

// ---------------------------------------------------- degraded detection --

TEST(DegradedDetection, MatchesClassicDetectorOnCompleteData) {
  Rng rng(61);
  Scenario sc = Scenario::fig1(rng);
  Vector y = sc.clean_measurements();
  y[0] += 500.0;  // inconsistent bump the redundancy cannot explain

  const DetectionOutcome classic =
      detect_scapegoating(sc.estimator(), y);
  const auto degraded = detect_scapegoating_degraded(
      sc.estimator(), robust::DegradedMeasurement::all_measured(y));
  ASSERT_TRUE(degraded.ok());
  EXPECT_EQ(degraded->detected, classic.detected);
  EXPECT_NEAR(degraded->residual_norm1, classic.residual_norm1, 1e-6);
  EXPECT_EQ(degraded->method, robust::SolveMethod::kFullRank);
  EXPECT_EQ(degraded->paths_used, y.size());
}

TEST(DegradedDetection, HonestNetworkWithMissingRowsStaysQuiet) {
  Rng rng(71);
  Scenario sc = Scenario::fig1(rng);
  robust::DegradedMeasurement m =
      robust::DegradedMeasurement::all_measured(sc.clean_measurements());
  m.measured[1] = m.measured[4] = false;  // two rows never materialized

  const auto out = detect_scapegoating_degraded(sc.estimator(), m);
  ASSERT_TRUE(out.ok());
  EXPECT_FALSE(out->detected);
  EXPECT_NEAR(out->residual_norm1, 0.0, 1e-6);
  EXPECT_EQ(out->paths_used, m.num_measured());
}

// -------------------------------------------------- checked experiment --

TEST(CheckedApis, TryEstimateRejectsWrongShape) {
  Rng rng(81);
  Scenario sc = Scenario::fig1(rng);
  const auto bad = sc.estimator().try_estimate(Vector{1.0, 2.0});
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.code(), robust::ErrorCode::kDimensionMismatch);

  const auto good = sc.estimator().try_estimate(sc.clean_measurements());
  ASSERT_TRUE(good.ok());
  for (std::size_t l = 0; l < sc.x_true().size(); ++l)
    EXPECT_NEAR((*good)[l], sc.x_true()[l], 1e-6);
}

TEST(CheckedApis, TryAssessRecoveryRejectsFailedAttack) {
  Rng rng(91);
  Scenario sc = Scenario::fig1(rng);
  AttackContext ctx = sc.context({0});
  AttackResult failed;  // success == false
  Rng rec_rng(92);
  const auto out = try_assess_recovery(sc, ctx, failed, {}, rec_rng);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.code(), robust::ErrorCode::kInvalidInput);
}

TEST(CheckedApis, TryAssessRecoveryRejectsMisshapenResult) {
  Rng rng(93);
  Scenario sc = Scenario::fig1(rng);
  AttackContext ctx = sc.context({0});
  AttackResult attack;
  attack.success = true;  // but sized for some other topology
  attack.states.resize(3, LinkState::kNormal);
  attack.x_estimated = Vector(3);
  Rng rec_rng(94);
  const auto out = try_assess_recovery(sc, ctx, attack, {}, rec_rng);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.code(), robust::ErrorCode::kDimensionMismatch);
}

// --------------------------------------------------------- chaos sweep --

FaultSweepOptions small_sweep() {
  FaultSweepOptions opt;
  opt.loss_rates = {0.0, 0.01, 0.05, 0.2};
  opt.topologies = 1;
  opt.trials_per_topology = 10;
  opt.probes_per_path = 2;
  opt.retry.max_retries = 2;
  opt.seed = 2024;
  return opt;
}

TEST(FaultSweep, EveryTrialEndsInExactlyOneStatus) {
  const FaultSweepSeries s =
      run_fault_sweep(TopologyKind::kWireline, small_sweep());
  ASSERT_EQ(s.cells.size(), 4u);
  EXPECT_GT(s.total_trials, 0u);
  for (const FaultSweepCell& c : s.cells) {
    EXPECT_EQ(c.trials, 10u);
    EXPECT_EQ(c.full_rank + c.fallback + c.unsolvable, c.trials)
        << "loss rate " << c.loss_rate;
    EXPECT_LE(c.paths_measured, c.paths_total);
    EXPECT_TRUE(std::isfinite(c.mean_abs_error_ms));
    EXPECT_TRUE(std::isfinite(c.max_abs_error_ms));
  }
}

TEST(FaultSweep, LosslessCellIsExactAndSilent) {
  const FaultSweepSeries s =
      run_fault_sweep(TopologyKind::kWireline, small_sweep());
  const FaultSweepCell& clean = s.cells.front();
  ASSERT_EQ(clean.loss_rate, 0.0);
  EXPECT_EQ(clean.full_rank, clean.trials);  // nothing ever degrades
  EXPECT_EQ(clean.unsolvable, 0u);
  EXPECT_DOUBLE_EQ(clean.measured_fraction(), 1.0);
  EXPECT_LT(clean.mean_abs_error_ms, 1e-6);  // exact recovery, no faults
  EXPECT_EQ(clean.alarms, 0u);               // honest network, no alarms
}

TEST(FaultSweep, ErrorGrowthStaysBounded) {
  const FaultSweepSeries s =
      run_fault_sweep(TopologyKind::kWireline, small_sweep());
  for (const FaultSweepCell& c : s.cells) {
    // Link metrics are U[1,20] ms; even the regularized fallback must not
    // blow the per-link error past the metric scale's order of magnitude.
    EXPECT_LT(c.mean_abs_error_ms, 100.0) << "loss rate " << c.loss_rate;
    // Retries keep the pipeline solving at every swept rate.
    EXPECT_GT(c.solve_rate(), 0.5) << "loss rate " << c.loss_rate;
  }
}

TEST(FaultSweep, BitwiseIdenticalAcrossThreadCounts) {
  FaultSweepOptions opt = small_sweep();
  opt.threads = 1;
  const FaultSweepSeries reference =
      run_fault_sweep(TopologyKind::kWireline, opt);
  for (std::size_t threads : {2u, 4u, 8u}) {
    opt.threads = threads;
    const FaultSweepSeries run = run_fault_sweep(TopologyKind::kWireline, opt);
    ASSERT_EQ(run.cells.size(), reference.cells.size());
    EXPECT_EQ(run.total_trials, reference.total_trials);
    for (std::size_t c = 0; c < run.cells.size(); ++c) {
      const FaultSweepCell& a = run.cells[c];
      const FaultSweepCell& b = reference.cells[c];
      EXPECT_EQ(a.trials, b.trials) << threads << " threads, cell " << c;
      EXPECT_EQ(a.full_rank, b.full_rank) << threads << " threads, cell " << c;
      EXPECT_EQ(a.fallback, b.fallback) << threads << " threads, cell " << c;
      EXPECT_EQ(a.unsolvable, b.unsolvable)
          << threads << " threads, cell " << c;
      EXPECT_EQ(a.paths_measured, b.paths_measured)
          << threads << " threads, cell " << c;
      EXPECT_EQ(a.alarms, b.alarms) << threads << " threads, cell " << c;
      // Bitwise, not approximate: the fold is serial and seed-split.
      EXPECT_EQ(a.mean_abs_error_ms, b.mean_abs_error_ms)
          << threads << " threads, cell " << c;
      EXPECT_EQ(a.max_abs_error_ms, b.max_abs_error_ms)
          << threads << " threads, cell " << c;
    }
  }
}

TEST(FaultSweep, GrainSizeDoesNotChangeResults) {
  FaultSweepOptions opt = small_sweep();
  opt.threads = 4;
  opt.grain = 1;
  const FaultSweepSeries fine = run_fault_sweep(TopologyKind::kWireline, opt);
  opt.grain = 16;
  const FaultSweepSeries coarse = run_fault_sweep(TopologyKind::kWireline, opt);
  ASSERT_EQ(fine.cells.size(), coarse.cells.size());
  for (std::size_t c = 0; c < fine.cells.size(); ++c) {
    EXPECT_EQ(fine.cells[c].full_rank, coarse.cells[c].full_rank);
    EXPECT_EQ(fine.cells[c].mean_abs_error_ms,
              coarse.cells[c].mean_abs_error_ms);
  }
}

TEST(FaultSweep, SurvivesCompoundFaults) {
  FaultSweepOptions opt = small_sweep();
  opt.loss_rates = {0.1};
  opt.faults.duplicate_rate = 0.1;
  opt.faults.reorder_rate = 0.1;
  opt.faults.clock_jitter_ms = 1.0;
  opt.faults.monitor_outage_rate = 0.05;
  opt.faults.link_failure_rate = 0.02;
  opt.retry.max_retries = 3;
  opt.retry.probe_deadline_ms = 500.0;

  const FaultSweepSeries s = run_fault_sweep(TopologyKind::kWireline, opt);
  ASSERT_EQ(s.cells.size(), 1u);
  const FaultSweepCell& c = s.cells.front();
  EXPECT_EQ(c.full_rank + c.fallback + c.unsolvable, c.trials);
  EXPECT_TRUE(std::isfinite(c.mean_abs_error_ms));
  EXPECT_TRUE(std::isfinite(c.max_abs_error_ms));
}

}  // namespace
}  // namespace scapegoat
