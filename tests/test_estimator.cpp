// Tests for the tomography estimator (Eq. 2) on the Fig. 1 network, plus a
// wireline deployment for the CGLS route.

#include "tomography/estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "core/experiment.hpp"
#include "obs/obs.hpp"
#include "tomography/routing_matrix.hpp"
#include "topology/example_networks.hpp"
#include "util/random.hpp"

namespace scapegoat {
namespace {

TEST(Estimator, RecoversTrueMetricsExactly) {
  ExampleNetwork net = fig1_network();
  TomographyEstimator est(net.graph, net.paths);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est.num_paths(), 23u);
  EXPECT_EQ(est.num_links(), 10u);

  Rng rng(17);
  Vector x(10);
  for (auto& xi : x) xi = rng.uniform(1.0, 20.0);
  const Vector y = path_metrics(net.paths, x);
  EXPECT_TRUE(approx_equal(est.estimate(y), x, 1e-8));
}

TEST(Estimator, QrMatchesLiteralNormalEquations) {
  ExampleNetwork net = fig1_network();
  TomographyEstimator qr(net.graph, net.paths, LeastSquaresMethod::kQr);
  TomographyEstimator ne(net.graph, net.paths,
                         LeastSquaresMethod::kNormalEquations);
  ASSERT_TRUE(qr.ok());
  ASSERT_TRUE(ne.ok());

  Rng rng(18);
  Vector y(net.paths.size());
  for (auto& yi : y) yi = rng.uniform(0.0, 100.0);
  EXPECT_TRUE(approx_equal(qr.estimate(y), ne.estimate(y), 1e-7));
}

TEST(Estimator, CleanMeasurementsHaveZeroResidual) {
  ExampleNetwork net = fig1_network();
  TomographyEstimator est(net.graph, net.paths);
  Rng rng(19);
  Vector x(10);
  for (auto& xi : x) xi = rng.uniform(1.0, 20.0);
  const Vector y = path_metrics(net.paths, x);
  EXPECT_NEAR(est.residual(y).norm1(), 0.0, 1e-7);
}

TEST(Estimator, InconsistentMeasurementsHaveNonzeroResidual) {
  ExampleNetwork net = fig1_network();
  TomographyEstimator est(net.graph, net.paths);
  Rng rng(20);
  Vector x(10);
  for (auto& xi : x) xi = rng.uniform(1.0, 20.0);
  Vector y = path_metrics(net.paths, x);
  y[16] += 500.0;  // tamper with path 17 only
  const Vector res = est.residual(y);
  EXPECT_GT(res.norm1(), 100.0);

  // residual() multiplies through CSR at every size, small R included; it
  // must give the dense product's answer bit for bit.
  ASSERT_LT(est.num_paths() * est.num_links(), std::size_t{1} << 14);
  const Vector dense = y - est.r() * est.estimate(y);
  ASSERT_EQ(res.size(), dense.size());
  for (std::size_t i = 0; i < res.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(res[i]),
              std::bit_cast<std::uint64_t>(dense[i]))
        << "path " << i;
  }
}

// Noisy measurements for `est`'s path set: not in R's range, so the
// least-squares fit is non-trivial.
Vector noisy_measurements(const Estimator& est, std::uint64_t seed) {
  Rng rng(seed);
  Vector y(est.num_paths());
  for (auto& yi : y) yi = rng.uniform(0.0, 100.0);
  return y;
}

void expect_relative_near(const Vector& a, const Vector& b, double tol) {
  ASSERT_EQ(a.size(), b.size());
  double scale = 0.0;
  for (std::size_t i = 0; i < b.size(); ++i)
    scale = std::max(scale, std::abs(b[i]));
  for (std::size_t i = 0; i < a.size(); ++i)
    EXPECT_LE(std::abs(a[i] - b[i]), tol * scale) << "link " << i;
}

// Asking for kCgls runs CGLS over the CSR R at any size, and it answers
// what the kept QR answers.
void expect_cgls_matches_qr(const Graph& g, const std::vector<Path>& paths,
                            std::uint64_t seed) {
  TomographyEstimator qr(g, paths, LeastSquaresMethod::kQr);
  TomographyEstimator cg(g, paths, LeastSquaresMethod::kCgls);
  ASSERT_TRUE(cg.ok());
  EXPECT_EQ(cg.solver(), LeastSquaresMethod::kCgls);
  const Vector y = noisy_measurements(cg, seed);
  const Vector x_qr = qr.estimate(y);

  obs::MetricsRegistry reg;
  obs::ScopedInstrumentation scope(reg);
  expect_relative_near(cg.estimate(y), x_qr, 1e-9);
  const robust::Expected<Vector> checked = cg.try_estimate(y);
  ASSERT_TRUE(checked.ok()) << checked.error_message();
  expect_relative_near(*checked, x_qr, 1e-9);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("tomography.estimate.sparse"), 2u);
  EXPECT_EQ(snap.counter_value("tomography.estimate.dense"), 0u);
  EXPECT_EQ(snap.counter_value("linalg.cgls.solves"), 2u);
}

TEST(Estimator, CglsMatchesQr) {
  ExampleNetwork net = fig1_network();
  expect_cgls_matches_qr(net.graph, net.paths, 21);

  Rng rng(22);
  const auto sc = make_scenario(TopologyKind::kWireline, rng);
  ASSERT_TRUE(sc.has_value());
  expect_cgls_matches_qr(sc->graph(), sc->estimator().paths(), 23);
}

TEST(Estimator, CglsRefusesBadInputWithoutSolving) {
  ExampleNetwork net = fig1_network();
  obs::MetricsRegistry reg;
  obs::ScopedInstrumentation scope(reg);

  // Unidentifiable: CGLS would converge to some answer without complaint,
  // so the rank check must refuse first.
  std::vector<Path> few(net.paths.begin(), net.paths.begin() + 5);
  TomographyEstimator under(net.graph, few, LeastSquaresMethod::kCgls);
  ASSERT_FALSE(under.ok());
  const auto rank = under.try_estimate(Vector(few.size(), 1.0));
  ASSERT_FALSE(rank.ok());
  EXPECT_EQ(rank.error().code, robust::ErrorCode::kRankDeficient);

  TomographyEstimator est(net.graph, net.paths, LeastSquaresMethod::kCgls);
  ASSERT_TRUE(est.ok());
  const auto dims = est.try_estimate(Vector(net.paths.size() - 1, 1.0));
  ASSERT_FALSE(dims.ok());
  EXPECT_EQ(dims.error().code, robust::ErrorCode::kDimensionMismatch);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("linalg.cgls.solves"), 0u);
  EXPECT_EQ(snap.counter_value("tomography.estimate.sparse"), 0u);
}

TEST(Estimator, PseudoInverseIsLeftInverse) {
  ExampleNetwork net = fig1_network();
  TomographyEstimator est(net.graph, net.paths);
  const Matrix gr = est.pseudo_inverse() * est.r();
  EXPECT_TRUE(approx_equal(gr, Matrix::identity(10), 1e-8));
}

TEST(Estimator, RejectsUnidentifiablePathSet) {
  ExampleNetwork net = fig1_network();
  // Keep only 5 paths: rank < 10.
  std::vector<Path> few(net.paths.begin(), net.paths.begin() + 5);
  TomographyEstimator est(net.graph, few);
  EXPECT_FALSE(est.ok());
}

TEST(Estimator, ClassifiesEstimates) {
  ExampleNetwork net = fig1_network();
  TomographyEstimator est(net.graph, net.paths);
  Vector x(10, 10.0);
  x[0] = 900.0;   // abnormal
  x[5] = 400.0;   // uncertain
  const Vector y = path_metrics(net.paths, x);
  const auto states = est.classify(y, StateThresholds{});
  EXPECT_EQ(states[0], LinkState::kAbnormal);
  EXPECT_EQ(states[5], LinkState::kUncertain);
  EXPECT_EQ(states[1], LinkState::kNormal);
}

TEST(RoutingMatrix, PathMetricsMatchesMatrixProduct) {
  ExampleNetwork net = fig1_network();
  const Matrix r = routing_matrix(net.graph, net.paths);
  Rng rng(23);
  Vector x(10);
  for (auto& xi : x) xi = rng.uniform(0.0, 50.0);
  EXPECT_TRUE(approx_equal(path_metrics(net.paths, x), r * x, 1e-10));
}

TEST(RoutingMatrix, PathsThroughNodesAndLinks) {
  ExampleNetwork net = fig1_network();
  // Paths through M1 = exactly the 13 paths containing link 1.
  const auto via_m1 = paths_through_nodes(net.paths, {net.m1});
  const auto via_link1 = paths_through_links(net.paths, {0});
  EXPECT_EQ(via_m1, via_link1);
  EXPECT_EQ(via_m1.size(), 13u);

  // Paths through both attackers' nodes: everything except path 17.
  const auto via_attackers = paths_through_nodes(net.paths, net.attackers);
  EXPECT_EQ(via_attackers.size(), 22u);
  for (std::size_t idx : via_attackers) EXPECT_NE(idx, 16u);
}

}  // namespace
}  // namespace scapegoat
