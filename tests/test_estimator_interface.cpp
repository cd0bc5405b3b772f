// The abstract Estimator interface and its factory: both concrete families
// behind EstimatorKind, polymorphic cloning, the streaming fast path and
// the family-specific residual statistic the Eq. 23 detector consumes.

#include "tomography/estimator_interface.hpp"

#include <gtest/gtest.h>

#include <memory>

#include "core/scenario.hpp"
#include "detect/detector.hpp"
#include "tomography/estimator.hpp"
#include "tomography/sparse_recovery.hpp"
#include "topology/example_networks.hpp"
#include "util/thread_pool.hpp"

namespace scapegoat {
namespace {

class EstimatorInterfaceTest : public ::testing::Test {
 protected:
  EstimatorInterfaceTest() : rng_(31), scenario_(Scenario::fig1(rng_)) {}

  Rng rng_;
  Scenario scenario_;
};

TEST_F(EstimatorInterfaceTest, FactoryMakesLeastSquares) {
  const auto est = make_estimator(EstimatorKind::kLeastSquares,
                                  scenario_.graph(),
                                  scenario_.estimator().paths());
  ASSERT_NE(est, nullptr);
  EXPECT_EQ(est->method(), EstimatorKind::kLeastSquares);
  ASSERT_TRUE(est->ok());
  // Identical answers to the concrete class it wraps.
  const Vector y = scenario_.clean_measurements();
  const TomographyEstimator direct(scenario_.graph(),
                                   scenario_.estimator().paths());
  const Vector a = est->estimate(y);
  const Vector b = direct.estimate(y);
  for (std::size_t j = 0; j < a.size(); ++j) EXPECT_EQ(a[j], b[j]);
}

TEST_F(EstimatorInterfaceTest, FactoryMakesSparseRecoveryWithOptions) {
  EstimatorOptions opt;
  opt.sparse_epsilon_ms = 10.0;
  opt.sparse_prior = scenario_.x_true();
  const auto est =
      make_estimator(EstimatorKind::kSparseRecovery, scenario_.graph(),
                     scenario_.estimator().paths(), opt);
  ASSERT_NE(est, nullptr);
  EXPECT_EQ(est->method(), EstimatorKind::kSparseRecovery);
  const auto* sparse = dynamic_cast<const SparseRecoveryEstimator*>(est.get());
  ASSERT_NE(sparse, nullptr);
  EXPECT_EQ(sparse->options().epsilon_ms, 10.0);
  // ε = 0 maps to the equality-constrained LP.
  EstimatorOptions exact;
  const auto eq = make_estimator(EstimatorKind::kSparseRecovery,
                                 scenario_.graph(),
                                 scenario_.estimator().paths(), exact);
  const auto* eq_sparse =
      dynamic_cast<const SparseRecoveryEstimator*>(eq.get());
  ASSERT_NE(eq_sparse, nullptr);
  EXPECT_EQ(eq_sparse->options().epsilon_ms, 0.0);
}

TEST_F(EstimatorInterfaceTest, CloneIsDeepAndPolymorphic) {
  for (const EstimatorKind kind :
       {EstimatorKind::kLeastSquares, EstimatorKind::kSparseRecovery,
        EstimatorKind::kMulticastMle}) {
    const auto est = make_estimator(kind, scenario_.graph(),
                                    scenario_.estimator().paths());
    const std::unique_ptr<Estimator> copy = est->clone();
    ASSERT_NE(copy, nullptr);
    EXPECT_EQ(copy->method(), kind);
    EXPECT_EQ(copy->num_paths(), est->num_paths());
    const Vector y = scenario_.clean_measurements();
    const Vector a = est->estimate(y);
    const Vector b = copy->estimate(y);
    for (std::size_t j = 0; j < a.size(); ++j)
      EXPECT_EQ(a[j], b[j]) << to_string(kind) << " link " << j;
  }
}

TEST_F(EstimatorInterfaceTest, StreamingResidualIsTheLeftNullSpaceProjection) {
  const Estimator& est = scenario_.estimator();
  ASSERT_EQ(est.method(), EstimatorKind::kLeastSquares);
  // The service fast path is N·(Nᵀy), with one row of Nᵀ per redundant path.
  const Matrix& nt = est.left_null_basis();
  ASSERT_EQ(nt.rows(), est.num_paths() - est.num_links());
  ASSERT_EQ(nt.cols(), est.num_paths());
  Vector y = scenario_.clean_measurements();
  // Clean measurements lie in range(R): nothing to project.
  EXPECT_LT(est.streaming_residual(y).norm_inf(), 1e-9);
  // Off range(R) it is the QR residual y − R·x̂, to roundoff.
  Rng rng(0x2e5dull);
  for (double& v : y) v += rng.uniform(0.0, 500.0);
  const Vector fast = est.streaming_residual(y);
  const Vector solved = est.residual(y);
  ASSERT_EQ(fast.size(), solved.size());
  EXPECT_GT(solved.norm1(), 1.0);
  for (std::size_t i = 0; i < fast.size(); ++i)
    EXPECT_NEAR(fast[i], solved[i], 1e-9) << "path " << i;
  // The other families keep the default: residual(y) itself.
  const auto sparse = make_estimator(EstimatorKind::kSparseRecovery,
                                     scenario_.graph(), est.paths());
  const Vector base = sparse->streaming_residual(y);
  const Vector direct = sparse->residual(y);
  ASSERT_EQ(base.size(), direct.size());
  for (std::size_t i = 0; i < base.size(); ++i) EXPECT_EQ(base[i], direct[i]);
}

TEST_F(EstimatorInterfaceTest, SharedFactorizationIsSafeAcrossThreads) {
  // One least-squares estimator shared by every pool worker, as the
  // experiment drivers share a scenario's: the estimates read the one kept
  // factorization concurrently and must match the serial answers bitwise.
  const TomographyEstimator est(scenario_.graph(),
                                scenario_.estimator().paths());
  ASSERT_TRUE(est.ok());
  const Matrix g = est.pseudo_inverse();  // warm the cache before sharing
  constexpr std::size_t kCalls = 64;
  std::vector<Vector> ys(kCalls), serial(kCalls), parallel(kCalls);
  Rng rng(0x5ea7ull);
  for (std::size_t k = 0; k < kCalls; ++k) {
    ys[k] = scenario_.clean_measurements();
    for (double& v : ys[k]) v += rng.uniform(0.0, 500.0);
    serial[k] = est.estimate(ys[k]);
  }
  std::vector<Matrix> gs(kCalls);
  ThreadPool pool(4);
  pool.parallel_for(0, kCalls, 1, [&](std::size_t lo, std::size_t hi) {
    for (std::size_t k = lo; k < hi; ++k) {
      parallel[k] = est.estimate(ys[k]);
      gs[k] = est.pseudo_inverse();
    }
  });
  for (std::size_t k = 0; k < kCalls; ++k) {
    ASSERT_EQ(gs[k].rows(), g.rows());
    ASSERT_EQ(gs[k].cols(), g.cols());
    for (std::size_t i = 0; i < g.rows(); ++i)
      for (std::size_t j = 0; j < g.cols(); ++j)
        EXPECT_EQ(gs[k](i, j), g(i, j)) << "call " << k;
    ASSERT_EQ(parallel[k].size(), serial[k].size());
    for (std::size_t j = 0; j < serial[k].size(); ++j)
      EXPECT_EQ(parallel[k][j], serial[k][j]) << "call " << k << " link " << j;
  }
}

TEST_F(EstimatorInterfaceTest, TryAppendPathGrowsEveryFamily) {
  // The scenario's unicast mesh is not a multicast tree, so the MLE family
  // exercises its documented pseudo-inverse fallback here.
  for (const EstimatorKind kind :
       {EstimatorKind::kLeastSquares, EstimatorKind::kSparseRecovery,
        EstimatorKind::kMulticastMle}) {
    EstimatorOptions opt;
    opt.sparse_prior = scenario_.x_true();
    const auto est = make_estimator(kind, scenario_.graph(),
                                    scenario_.estimator().paths(), opt);
    const std::size_t before = est->num_paths();
    // Re-announce the first measurement route (a redundancy-adding append).
    ASSERT_TRUE(est->try_append_path(est->paths()[0]).ok());
    EXPECT_EQ(est->num_paths(), before + 1);
    Vector y(est->num_paths(), 0.0);
    const Vector x = scenario_.x_true();
    for (std::size_t i = 0; i < est->num_paths(); ++i) {
      double sum = 0.0;
      for (const LinkId l : est->paths()[i].links) sum += x[l];
      y[i] = sum;
    }
    // Consistent measurements over the grown path set stay explainable.
    EXPECT_LT(est->residual_statistic(y), 1e-6);
  }
}

TEST_F(EstimatorInterfaceTest, DetectorRoutesTheFamilyResidualStatistic) {
  // The same tampered measurements, judged by both families through the
  // SAME detect_scapegoating call: least squares thresholds the raw ‖r‖₁
  // while sparse recovery first subtracts its per-path ε allowance.
  EstimatorOptions opt;
  opt.sparse_epsilon_ms = 40.0;
  opt.sparse_prior = scenario_.x_true();
  const auto sparse =
      make_estimator(EstimatorKind::kSparseRecovery, scenario_.graph(),
                     scenario_.estimator().paths(), opt);
  Vector y = scenario_.clean_measurements();
  Rng jitter(0xd17ull);
  for (std::size_t i = 0; i < y.size(); ++i) y[i] += jitter.uniform(0.0, 30.0);

  const DetectionOutcome ls = detect_scapegoating(scenario_.estimator(), y);
  const DetectionOutcome sp = detect_scapegoating(*sparse, y);
  // Sub-ε jitter on every path: fully inside the sparse defender's
  // measurement model, while the LS residual accumulates it across paths.
  EXPECT_NEAR(sp.residual_norm1, 0.0, 1e-9);
  EXPECT_FALSE(sp.detected);
  EXPECT_GT(ls.residual_norm1, sp.residual_norm1);
}

}  // namespace
}  // namespace scapegoat
