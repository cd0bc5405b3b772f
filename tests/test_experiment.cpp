// Smoke tests over the Monte-Carlo experiment runners (Figs. 7-9) with tiny
// budgets: structural invariants, probability ranges, and the Theorem-3
// detection dichotomy.

#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "core/fault_experiment.hpp"
#include "core/scenario.hpp"
#include "core/simulate.hpp"
#include "simnet/resilient_probing.hpp"

namespace scapegoat {
namespace {

TEST(ExperimentSmoke, MakeScenarioIsSeedDeterministic) {
  Rng a(55), b(55);
  auto sa = make_scenario(TopologyKind::kWireline, a);
  auto sb = make_scenario(TopologyKind::kWireline, b);
  ASSERT_TRUE(sa.has_value());
  ASSERT_TRUE(sb.has_value());
  EXPECT_EQ(sa->graph().num_links(), sb->graph().num_links());
  EXPECT_EQ(sa->estimator().num_paths(), sb->estimator().num_paths());
  EXPECT_TRUE(approx_equal(sa->x_true(), sb->x_true(), 0.0));
}

TEST(ExperimentSmoke, PresenceRatioSeriesInvariants) {
  PresenceRatioOptions opt;
  opt.topologies = 1;
  opt.trials_per_topology = 40;
  opt.seed = 1234;
  const PresenceRatioSeries s =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  EXPECT_EQ(s.kind, TopologyKind::kWireline);
  EXPECT_EQ(s.bins.size(), opt.bins + 1);
  std::size_t total = 0;
  for (const PresenceRatioBin& b : s.bins) {
    EXPECT_GE(b.trials, b.successes);
    EXPECT_GE(b.probability(), 0.0);
    EXPECT_LE(b.probability(), 1.0);
    total += b.trials;
  }
  EXPECT_EQ(total, s.total_trials);
  EXPECT_GT(s.total_trials, 0u);
  // Theorem 1: the exact-perfect-cut bin never fails.
  const PresenceRatioBin& perfect = s.bins.back();
  if (perfect.trials > 0) {
    EXPECT_EQ(perfect.successes, perfect.trials);
  }
}

TEST(ExperimentSmoke, SingleAttackerProbabilitiesInRange) {
  SingleAttackerOptions opt;
  opt.topologies = 1;
  opt.trials_per_topology = 6;
  opt.seed = 99;
  const SingleAttackerResult r =
      run_single_attacker_experiment(TopologyKind::kWireline, opt);
  EXPECT_EQ(r.trials, 6u);
  EXPECT_LE(r.max_damage_successes, r.trials);
  EXPECT_LE(r.obfuscation_successes, r.trials);
  EXPECT_GE(r.max_damage_probability(), r.obfuscation_probability() - 1.0);
}

TEST(ExperimentSmoke, DetectionDichotomyTinyRun) {
  DetectionOptionsExperiment opt;
  opt.topologies = 1;
  opt.successful_attacks_per_cell = 4;
  opt.max_trials_per_cell = 120;
  opt.seed = 77;
  const DetectionSeries s =
      run_detection_experiment(TopologyKind::kWireline, opt);
  EXPECT_EQ(s.cells.size(), 6u);
  EXPECT_EQ(s.false_alarms, 0u);
  EXPECT_GT(s.clean_trials, 0u);
  for (const DetectionCell& c : s.cells) {
    EXPECT_LE(c.detected, c.attacks);
    if (c.attacks == 0) continue;
    if (c.perfect_cut) {
      // Theorem 3: consistent perfect-cut attacks are invisible.
      EXPECT_EQ(c.detected, 0u) << to_string(c.strategy);
    } else {
      // Damage-max imperfect-cut attacks leave large residuals.
      EXPECT_GT(c.detection_ratio(), 0.5) << to_string(c.strategy);
    }
  }
}

TEST(ExperimentSmoke, ToStringNames) {
  EXPECT_EQ(to_string(TopologyKind::kWireline), "wireline");
  EXPECT_EQ(to_string(TopologyKind::kWireless), "wireless");
  EXPECT_EQ(to_string(AttackStrategy::kChosenVictim), "chosen-victim");
  EXPECT_EQ(to_string(AttackStrategy::kMaxDamage), "maximum-damage");
  EXPECT_EQ(to_string(AttackStrategy::kObfuscation), "obfuscation");
}

// Degenerate configurations must run to completion and report empty
// results — never divide by zero, index past an empty vector or hang.

TEST(DegenerateConfigs, ZeroTrialsYieldEmptySeries) {
  PresenceRatioOptions pr;
  pr.topologies = 1;
  pr.trials_per_topology = 0;
  const PresenceRatioSeries series =
      run_presence_ratio_experiment(TopologyKind::kWireline, pr);
  EXPECT_EQ(series.total_trials, 0u);
  for (const PresenceRatioBin& b : series.bins) {
    EXPECT_EQ(b.trials, 0u);
    EXPECT_EQ(b.probability(), 0.0);  // not NaN
  }

  SingleAttackerOptions sa;
  sa.topologies = 1;
  sa.trials_per_topology = 0;
  const SingleAttackerResult result =
      run_single_attacker_experiment(TopologyKind::kWireline, sa);
  EXPECT_EQ(result.trials, 0u);
  EXPECT_EQ(result.max_damage_probability(), 0.0);
}

TEST(DegenerateConfigs, ZeroTopologiesYieldEmptySeries) {
  PresenceRatioOptions pr;
  pr.topologies = 0;
  pr.trials_per_topology = 10;
  const PresenceRatioSeries series =
      run_presence_ratio_experiment(TopologyKind::kWireline, pr);
  EXPECT_EQ(series.total_trials, 0u);
}

TEST(DegenerateConfigs, FaultSweepWithNoWorkCompletes) {
  FaultSweepOptions no_trials;
  no_trials.topologies = 1;
  no_trials.trials_per_topology = 0;
  no_trials.loss_rates = {0.0, 0.5};
  const FaultSweepSeries a =
      run_fault_sweep(TopologyKind::kWireline, no_trials);
  EXPECT_EQ(a.total_trials, 0u);
  for (const FaultSweepCell& c : a.cells) {
    EXPECT_EQ(c.trials, 0u);
    EXPECT_EQ(c.solve_rate(), 0.0);          // not NaN
    EXPECT_EQ(c.measured_fraction(), 0.0);   // not NaN
  }

  FaultSweepOptions no_rates;
  no_rates.loss_rates = {};
  no_rates.topologies = 1;
  no_rates.trials_per_topology = 4;
  const FaultSweepSeries b = run_fault_sweep(TopologyKind::kWireline, no_rates);
  EXPECT_TRUE(b.cells.empty());
  EXPECT_EQ(b.total_trials, 0u);
}

TEST(DegenerateConfigs, ProbingEmptyPathSetIsANoOp) {
  Rng rng(401);
  Scenario sc = Scenario::fig1(rng);
  simnet::NullAdversary honest;
  Rng sim_rng(402);
  simnet::Simulator sim(sc.graph(), link_models(sc), honest, sim_rng);
  robust::FaultInjector faults;
  simnet::ResilientProbeStats stats;
  const robust::DegradedMeasurement m = simnet::probe_with_retries(
      sim, {}, {}, faults, {}, &stats);
  EXPECT_EQ(m.y.size(), 0u);
  EXPECT_TRUE(m.complete());  // vacuously
  EXPECT_EQ(stats.probes_sent, 0u);
  EXPECT_EQ(stats.paths_missing, 0u);
}

TEST(DegenerateConfigs, SinglePathMeasurementFlowsThroughPipeline) {
  Rng rng(403);
  Scenario sc = Scenario::fig1(rng);
  const auto& paths = sc.estimator().paths();
  const std::vector<Path> one_path(paths.begin(), paths.begin() + 1);

  simnet::NullAdversary honest;
  Rng sim_rng(404);
  simnet::Simulator sim(sc.graph(), link_models(sc), honest, sim_rng);
  robust::FaultInjector faults;
  const robust::DegradedMeasurement m =
      simnet::probe_with_retries(sim, one_path, {}, faults, {});
  ASSERT_EQ(m.y.size(), 1u);
  ASSERT_TRUE(m.complete());

  // One path cannot identify Fig. 1's links: the degraded solver must land
  // on the regularized fallback, not crash.
  const SparseMatrix r1 = sc.estimator().sparse_r().select_rows({0});
  const auto est = robust::degraded_estimate(r1, m);
  ASSERT_TRUE(est.ok()) << est.error().to_string();
  EXPECT_EQ(est->method, robust::SolveMethod::kRegularizedFallback);
  EXPECT_EQ(est->paths_used, 1u);
}

}  // namespace
}  // namespace scapegoat
