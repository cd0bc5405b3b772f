// SparseRecoveryEstimator — the EstimatorKind::kSparseRecovery family:
// equality-mode agreement with least squares on identifiable systems,
// support recovery in the underdetermined (m < n) regime, the ∞-ball noise
// allowance, the Chebyshev auto-relaxation and the structured error
// taxonomy.

#include "tomography/sparse_recovery.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "core/experiment.hpp"
#include "core/scenario.hpp"
#include "obs/obs.hpp"
#include "tomography/estimator.hpp"
#include "topology/generators.hpp"
#include "util/random.hpp"

namespace scapegoat {
namespace {

// Identifiable fixture: a wireline scenario (m > n, full column rank) with
// the sparse estimator's prior anchored at the true baseline metrics.
class SparseRecoveryIdentifiable : public ::testing::Test {
 protected:
  SparseRecoveryIdentifiable() : rng_(0x5137ull) {
    auto sc = make_scenario(TopologyKind::kWireline, rng_);
    if (!sc.has_value()) return;
    scenario_.emplace(std::move(*sc));
    SparseRecoveryOptions so;
    so.prior = scenario_->x_true();
    sparse_.emplace(scenario_->graph(), scenario_->estimator().paths(), so);
  }

  Vector planted_measurements(std::size_t k, Vector* x_out = nullptr) {
    Vector x = scenario_->x_true();
    const auto links = rng_.sample_without_replacement(x.size(), k);
    for (const std::size_t l : links) x[l] += 900.0;
    if (x_out != nullptr) *x_out = x;
    return scenario_->estimator().sparse_r() * x;
  }

  Rng rng_;
  std::optional<Scenario> scenario_;
  std::optional<SparseRecoveryEstimator> sparse_;
};

TEST_F(SparseRecoveryIdentifiable, EqualityModeMatchesLeastSquares) {
  ASSERT_TRUE(scenario_.has_value());
  // Consistent measurements on a full-column-rank R: the equality LP's
  // feasible set is the singleton R⁺y, so both families must coincide.
  for (const std::size_t k : {1u, 2u, 4u}) {
    const Vector y = planted_measurements(k);
    const auto rec = sparse_->recover(y);
    ASSERT_TRUE(rec.ok()) << rec.error_message();
    EXPECT_FALSE(rec->relaxed);
    const Vector x_ls = scenario_->estimator().estimate(y);
    for (std::size_t j = 0; j < x_ls.size(); ++j)
      EXPECT_NEAR(rec->x[j], x_ls[j], 1e-6) << "link " << j << " k " << k;
  }
}

TEST_F(SparseRecoveryIdentifiable, RecoversPlantedSupportExactly) {
  ASSERT_TRUE(scenario_.has_value());
  Vector x;
  const Vector y = planted_measurements(3, &x);
  std::vector<LinkId> want;
  for (LinkId l = 0; l < x.size(); ++l)
    if (x[l] > scenario_->x_true()[l] + 1.0) want.push_back(l);
  const auto rec = sparse_->recover(y);
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec->support, want);
}

TEST_F(SparseRecoveryIdentifiable, CleanMeasurementsRecoverThePrior) {
  ASSERT_TRUE(scenario_.has_value());
  const Vector y = scenario_->clean_measurements();
  const auto rec = sparse_->recover(y);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->support.empty());
  EXPECT_NEAR(rec->objective, 0.0, 1e-6);
  EXPECT_NEAR(sparse_->residual_statistic(y), 0.0, 1e-6);
}

TEST_F(SparseRecoveryIdentifiable, CleanMeasurementsRefreshTheTableau) {
  ASSERT_TRUE(scenario_.has_value());
  // The ℓ1 LP on clean measurements is the model whose tableau drifts: its
  // optimal basis is right, but roundoff has moved the basic values, and
  // the refresh from the model is what brings the objective back to ~0.
  const Vector y = scenario_->clean_measurements();
  obs::MetricsRegistry reg;
  {
    obs::ScopedInstrumentation scope(reg);
    ASSERT_TRUE(sparse_->recover(y).ok());
  }
  EXPECT_GE(reg.snapshot().counter_value("lp.simplex.refreshes"), 1u);
}

TEST_F(SparseRecoveryIdentifiable, InfBallAbsorbsSubEpsilonNoise) {
  ASSERT_TRUE(scenario_.has_value());
  SparseRecoveryOptions so = sparse_->options();
  so.epsilon_ms = 10.0;
  const SparseRecoveryEstimator ball(scenario_->graph(),
                                     scenario_->estimator().paths(), so);
  Vector y = scenario_->clean_measurements();
  Rng jitter(0x7e57ull);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += jitter.uniform(0.0, 9.0);
  const auto rec = ball.recover(y);
  ASSERT_TRUE(rec.ok());
  // All discrepancies fit inside the ball: nothing to explain, no anomaly
  // support, zero excess statistic for the Eq. 23 detector.
  EXPECT_FALSE(rec->relaxed);
  EXPECT_TRUE(rec->support.empty()) << rec->support.size() << " spurious";
  EXPECT_NEAR(ball.residual_statistic(y), 0.0, 1e-9);
}

TEST_F(SparseRecoveryIdentifiable, AutoRelaxationStaysVisibleToDetector) {
  ASSERT_TRUE(scenario_.has_value());
  // Tampering one path of a redundant (m > n) system leaves y outside the
  // column space: the equality LP is infeasible, the Chebyshev fallback
  // relaxes to the minimal feasible ε*, and the excess statistic reports
  // the inconsistency instead of hiding it.
  Vector y = scenario_->clean_measurements();
  y[0] += 500.0;
  const auto rec = sparse_->recover(y);
  ASSERT_TRUE(rec.ok());
  EXPECT_TRUE(rec->relaxed);
  EXPECT_GT(rec->epsilon_used, 0.0);
  EXPECT_GT(sparse_->residual_statistic(y), 0.0);
}

TEST_F(SparseRecoveryIdentifiable, RefusesInfeasibleWithoutAutoRelax) {
  ASSERT_TRUE(scenario_.has_value());
  SparseRecoveryOptions so = sparse_->options();
  so.auto_relax = false;
  const SparseRecoveryEstimator strict(scenario_->graph(),
                                       scenario_->estimator().paths(), so);
  Vector y = scenario_->clean_measurements();
  y[0] += 500.0;
  const auto rec = strict.recover(y);
  ASSERT_FALSE(rec.ok());
  EXPECT_EQ(rec.code(), robust::ErrorCode::kInvalidInput);
  // estimate() stays total regardless: it falls back to the prior.
  const Vector fallback = strict.estimate(y);
  for (std::size_t j = 0; j < fallback.size(); ++j)
    EXPECT_NEAR(fallback[j], strict.prior()[j], 1e-12);
}

TEST_F(SparseRecoveryIdentifiable, ErrorTaxonomyOnBadShapes) {
  ASSERT_TRUE(scenario_.has_value());
  const Vector short_y(scenario_->estimator().num_paths() - 1, 1.0);
  EXPECT_EQ(sparse_->recover(short_y).code(),
            robust::ErrorCode::kDimensionMismatch);
  EXPECT_EQ(sparse_->try_estimate(short_y).code(),
            robust::ErrorCode::kDimensionMismatch);

  SparseRecoveryOptions so;
  so.prior = Vector(3, 1.0);  // wrong width for this graph
  const SparseRecoveryEstimator bad(scenario_->graph(),
                                    scenario_->estimator().paths(), so);
  EXPECT_EQ(bad.recover(scenario_->clean_measurements()).code(),
            robust::ErrorCode::kDimensionMismatch);
}

TEST_F(SparseRecoveryIdentifiable, EstimateIsAlwaysNonnegative) {
  ASSERT_TRUE(scenario_.has_value());
  // Hostile measurements that drive the least-squares answer negative must
  // still come back ⪰ 0 from the sparse family (x ⪰ 0 is in its LP).
  Vector y = scenario_->clean_measurements();
  for (std::size_t i = 0; i < y.size(); i += 2) y[i] = 0.0;
  const Vector x = sparse_->estimate(y);
  for (std::size_t j = 0; j < x.size(); ++j)
    EXPECT_GE(x[j], -1e-9) << "link " << j;
}

// Underdetermined regime: 64 links measured by 32 random 8-link paths (the
// expander-style sensing density bench_sparse_recovery validates for exact
// k = 1 support recovery). Least squares refuses (rank-deficient); the ℓ1
// LP is the whole point here.
class SparseRecoveryUnderdetermined : public ::testing::Test {
 protected:
  SparseRecoveryUnderdetermined() : g_(ring(64)) {
    Rng rng(0xdecadeull);
    for (std::size_t i = 0; i < 32; ++i) {
      Path p;
      const auto picked = rng.sample_without_replacement(g_.num_links(), 8);
      p.links.assign(picked.begin(), picked.end());
      paths_.push_back(std::move(p));
    }
    SparseRecoveryOptions so;
    so.prior = Vector(g_.num_links(), 5.0);
    sparse_.emplace(g_, paths_, so);
  }

  Graph g_;
  std::vector<Path> paths_;
  std::optional<SparseRecoveryEstimator> sparse_;
};

TEST_F(SparseRecoveryUnderdetermined, LeastSquaresRefusesButRecoveryWorks) {
  const TomographyEstimator ls(g_, paths_);
  EXPECT_FALSE(ls.ok());
  EXPECT_FALSE(sparse_->ok());  // informational for this family

  // One planted anomaly on a measured link must be found exactly.
  Vector x = sparse_->prior();
  LinkId planted = paths_[0].links[0];
  x[planted] += 900.0;
  const auto rec = sparse_->recover(sparse_->sparse_r() * x);
  ASSERT_TRUE(rec.ok()) << rec.error_message();
  ASSERT_EQ(rec->support.size(), 1u);
  EXPECT_EQ(rec->support[0], planted);
  EXPECT_NEAR(rec->x[planted], x[planted], 1e-6);
}

TEST_F(SparseRecoveryUnderdetermined, CloneIsIndependentAndEquivalent) {
  Vector x = sparse_->prior();
  x[paths_[1].links[2]] += 400.0;
  const Vector y = sparse_->sparse_r() * x;
  const auto copy = sparse_->clone();
  ASSERT_NE(copy, nullptr);
  EXPECT_EQ(copy->method(), EstimatorKind::kSparseRecovery);
  const Vector a = sparse_->estimate(y);
  const Vector b = copy->estimate(y);
  for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
}

}  // namespace
}  // namespace scapegoat
