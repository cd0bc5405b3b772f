// Golden-figure regression: pins the CRC-32 fold fingerprints
// (testkit/golden.hpp) of fixed small Fig. 7 / Fig. 8 / Fig. 9 and
// fault-sweep configs at 1 and 4 threads, and of the defender and
// loss-domain ablations at 1, 2 and 4 threads. Two things are locked at once:
//   * cross-thread-count bitwise determinism (fingerprints agree at 1 and 4
//     threads — the DESIGN.md §7 contract, here over the full serialized
//     fold, not per-field spot checks);
//   * the fold values themselves — a refactor of the estimator, the LP, the
//     attack strategies, or the fold order cannot silently re-baseline the
//     paper's figures. An intentional behavior change must update the
//     constants below, which makes re-baselining a reviewed diff.
// Residual products run through CSR at every size, so the pinned values
// also hold the CSR product to its bitwise contract with the dense one
// (linalg/sparse_matrix.hpp).
//
// The configs deliberately reuse the sizes of test_parallel_determinism so
// the runtime cost stays in the same budget CI already pays.

#include <gtest/gtest.h>

#include <cstdint>

#include "core/defender_ablation.hpp"
#include "core/experiment.hpp"
#include "core/fault_experiment.hpp"
#include "testkit/golden.hpp"

namespace scapegoat {
namespace {

// Pinned fold fingerprints (capture: run this suite and copy the "actual"
// value from the failure message — there is intentionally no capture mode).
constexpr std::uint32_t kFig7Golden = 0x9cbd0103u;
constexpr std::uint32_t kFig8Golden = 0xe31d7a77u;
constexpr std::uint32_t kFig9Golden = 0x65a829d6u;
constexpr std::uint32_t kFaultSweepGolden = 0x4bc7b945u;
constexpr std::uint32_t kDefenderAblationGolden = 0x69eb9f1bu;
constexpr std::uint32_t kLossAblationGolden = 0x4f89e868u;

constexpr std::size_t kThreadCounts[] = {1, 4};
constexpr std::size_t kAblationThreadCounts[] = {1, 2, 4};

TEST(GoldenFigures, Fig7PresenceRatioFingerprint) {
  PresenceRatioOptions opt;
  opt.topologies = 1;
  opt.trials_per_topology = 48;
  opt.seed = 1234;
  for (std::size_t threads : kThreadCounts) {
    opt.threads = threads;
    const std::uint32_t fp = testkit::fingerprint(
        run_presence_ratio_experiment(TopologyKind::kWireline, opt));
    EXPECT_EQ(fp, kFig7Golden) << "at " << threads << " threads";
  }
}

TEST(GoldenFigures, Fig8SingleAttackerFingerprint) {
  SingleAttackerOptions opt;
  opt.topologies = 1;
  opt.trials_per_topology = 10;
  opt.seed = 99;
  for (std::size_t threads : kThreadCounts) {
    opt.threads = threads;
    const std::uint32_t fp = testkit::fingerprint(
        run_single_attacker_experiment(TopologyKind::kWireline, opt));
    EXPECT_EQ(fp, kFig8Golden) << "at " << threads << " threads";
  }
}

TEST(GoldenFigures, Fig9DetectionFingerprint) {
  DetectionOptionsExperiment opt;
  opt.topologies = 1;
  opt.successful_attacks_per_cell = 3;
  opt.max_trials_per_cell = 96;
  opt.seed = 77;
  for (std::size_t threads : kThreadCounts) {
    opt.threads = threads;
    const std::uint32_t fp = testkit::fingerprint(
        run_detection_experiment(TopologyKind::kWireline, opt));
    EXPECT_EQ(fp, kFig9Golden) << "at " << threads << " threads";
  }
}

TEST(GoldenFigures, FaultSweepFingerprint) {
  FaultSweepOptions opt;
  opt.topologies = 1;
  opt.trials_per_topology = 12;
  opt.seed = 11;
  for (std::size_t threads : kThreadCounts) {
    opt.threads = threads;
    const std::uint32_t fp =
        testkit::fingerprint(run_fault_sweep(TopologyKind::kWireline, opt));
    EXPECT_EQ(fp, kFaultSweepGolden) << "at " << threads << " threads";
  }
}

TEST(GoldenFigures, DefenderAblationFingerprint) {
  DefenderAblationOptions opt;
  opt.topologies = 2;
  opt.trials_per_cell = 2;
  opt.clean_trials = 1;
  opt.anomaly_sparsity = {1};
  opt.defender_epsilons_ms = {0.0, 10.0};
  opt.families = {AttackFamily::kUnrestricted, AttackFamily::kConsistent};
  for (std::size_t threads : kAblationThreadCounts) {
    opt.threads = threads;
    const std::uint32_t fp = testkit::fingerprint(run_defender_ablation(opt));
    EXPECT_EQ(fp, kDefenderAblationGolden) << "at " << threads << " threads";
  }
}

TEST(GoldenFigures, LossAblationFingerprint) {
  LossAblationOptions opt;
  opt.topologies = 2;
  opt.trials_per_cell = 2;
  opt.clean_trials = 2;
  opt.probes = 400;
  opt.drop_rates = {0.2};
  for (std::size_t threads : kAblationThreadCounts) {
    opt.threads = threads;
    const std::uint32_t fp = testkit::fingerprint(run_loss_ablation(opt));
    EXPECT_EQ(fp, kLossAblationGolden) << "at " << threads << " threads";
  }
}

}  // namespace
}  // namespace scapegoat
