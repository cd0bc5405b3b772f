// Determinism regression for the parallel experiment engine: the same
// experiment config run at 1, 2, and 8 worker threads must produce
// bitwise-identical per-trial estimates and aggregate stats. This is the
// seed-splitting contract of core/experiment (see DESIGN.md "Threading
// model"): every trial draws from Rng(derive_seed(base, trial_index)), so
// scheduling can never leak into results.

#include "core/experiment.hpp"

#include <gtest/gtest.h>

#include "util/thread_pool.hpp"

namespace scapegoat {
namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

void expect_same_presence_series(const PresenceRatioSeries& a,
                                 const PresenceRatioSeries& b,
                                 std::size_t threads) {
  ASSERT_EQ(a.bins.size(), b.bins.size());
  EXPECT_EQ(a.total_trials, b.total_trials) << threads << " threads";
  for (std::size_t i = 0; i < a.bins.size(); ++i) {
    EXPECT_EQ(a.bins[i].trials, b.bins[i].trials)
        << "bin " << i << " at " << threads << " threads";
    EXPECT_EQ(a.bins[i].successes, b.bins[i].successes)
        << "bin " << i << " at " << threads << " threads";
  }
}

TEST(ParallelDeterminism, PresenceRatioSeriesIdenticalAcrossThreadCounts) {
  PresenceRatioOptions opt;
  opt.topologies = 1;
  opt.trials_per_topology = 48;
  opt.seed = 1234;

  opt.threads = 1;
  const PresenceRatioSeries reference =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  EXPECT_GT(reference.total_trials, 0u);
  for (std::size_t threads : kThreadCounts) {
    opt.threads = threads;
    expect_same_presence_series(
        run_presence_ratio_experiment(TopologyKind::kWireline, opt), reference,
        threads);
  }
}

TEST(ParallelDeterminism, GrainSizeDoesNotChangeResults) {
  PresenceRatioOptions opt;
  opt.topologies = 1;
  opt.trials_per_topology = 32;
  opt.seed = 5;
  opt.threads = 4;
  opt.grain = 8;
  const PresenceRatioSeries coarse =
      run_presence_ratio_experiment(TopologyKind::kWireline, opt);
  opt.grain = 1;
  expect_same_presence_series(
      run_presence_ratio_experiment(TopologyKind::kWireline, opt), coarse, 4);
}

TEST(ParallelDeterminism, SingleAttackerResultsIdenticalAcrossThreadCounts) {
  SingleAttackerOptions opt;
  opt.topologies = 1;
  opt.trials_per_topology = 10;
  opt.seed = 99;

  opt.threads = 1;
  const SingleAttackerResult reference =
      run_single_attacker_experiment(TopologyKind::kWireline, opt);
  EXPECT_EQ(reference.trials, 10u);
  for (std::size_t threads : kThreadCounts) {
    opt.threads = threads;
    const SingleAttackerResult run =
        run_single_attacker_experiment(TopologyKind::kWireline, opt);
    EXPECT_EQ(run.trials, reference.trials) << threads << " threads";
    EXPECT_EQ(run.max_damage_successes, reference.max_damage_successes)
        << threads << " threads";
    EXPECT_EQ(run.obfuscation_successes, reference.obfuscation_successes)
        << threads << " threads";
  }
}

TEST(ParallelDeterminism, DetectionSeriesIdenticalAcrossThreadCounts) {
  DetectionOptionsExperiment opt;
  opt.topologies = 1;
  opt.successful_attacks_per_cell = 3;
  opt.max_trials_per_cell = 96;
  opt.seed = 77;

  opt.threads = 1;
  const DetectionSeries reference =
      run_detection_experiment(TopologyKind::kWireline, opt);
  ASSERT_EQ(reference.cells.size(), 6u);
  EXPECT_GT(reference.clean_trials, 0u);
  for (std::size_t threads : kThreadCounts) {
    opt.threads = threads;
    const DetectionSeries run =
        run_detection_experiment(TopologyKind::kWireline, opt);
    ASSERT_EQ(run.cells.size(), reference.cells.size());
    EXPECT_EQ(run.clean_trials, reference.clean_trials);
    EXPECT_EQ(run.false_alarms, reference.false_alarms);
    for (std::size_t i = 0; i < run.cells.size(); ++i) {
      EXPECT_EQ(run.cells[i].strategy, reference.cells[i].strategy);
      EXPECT_EQ(run.cells[i].perfect_cut, reference.cells[i].perfect_cut);
      EXPECT_EQ(run.cells[i].attacks, reference.cells[i].attacks)
          << "cell " << i << " at " << threads << " threads";
      EXPECT_EQ(run.cells[i].detected, reference.cells[i].detected)
          << "cell " << i << " at " << threads << " threads";
    }
  }
}

// Per-trial estimates, not just aggregates: the scenario build and the
// estimator's x̂ = R⁺y solve (serial QR / pseudo-inverse kernels, whatever
// the global pool's size) must produce the same bits under any global
// thread count.
TEST(ParallelDeterminism, PerTrialEstimatesBitwiseIdentical) {
  auto build = [] {
    Rng rng(2024);
    return make_scenario(TopologyKind::kWireline, rng);
  };
  ThreadPool::set_global_threads(1);
  auto serial_sc = build();
  ASSERT_TRUE(serial_sc.has_value());
  const Vector y = serial_sc->clean_measurements();
  const Vector serial_estimate = serial_sc->estimator().estimate(y);

  for (std::size_t threads : kThreadCounts) {
    ThreadPool::set_global_threads(threads);
    auto sc = build();
    ASSERT_TRUE(sc.has_value());
    // Topology generation itself is RNG-driven and thread-independent.
    ASSERT_EQ(sc->graph().num_links(), serial_sc->graph().num_links());
    EXPECT_TRUE(approx_equal(sc->x_true(), serial_sc->x_true(), 0.0));
    EXPECT_TRUE(approx_equal(sc->estimator().estimate(y), serial_estimate, 0.0))
        << threads << " threads";
    EXPECT_TRUE(approx_equal(sc->estimator().pseudo_inverse(),
                             serial_sc->estimator().pseudo_inverse(), 0.0))
        << threads << " threads";
  }
  ThreadPool::set_global_threads(1);
}

}  // namespace
}  // namespace scapegoat
