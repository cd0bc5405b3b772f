// Tests for the tomography estimator (Eq. 2) on the Fig. 1 network, plus a
// tall chain R past the CGLS size rule for the CGLS route.

#include "tomography/estimator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "linalg/cgls.hpp"
#include "linalg/least_squares.hpp"
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
  TomographyEstimator qr(net.graph, net.paths);
  ASSERT_TRUE(qr.ok());

  Rng rng(18);
  Vector y(net.paths.size());
  for (auto& yi : y) yi = rng.uniform(0.0, 100.0);
  const auto ne = least_squares(qr.sparse_r().to_dense(), y,
                                LeastSquaresMethod::kNormalEquations);
  ASSERT_TRUE(ne.has_value());
  EXPECT_TRUE(approx_equal(qr.estimate(y), *ne, 1e-7));
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
  const Vector dense = y - est.sparse_r().to_dense() * est.estimate(y);
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

// A tall R that meets the CGLS size rule: 8192 paths (2^20 cells) over a
// 128-link chain, each path a run of 1-8 consecutive links. The first 128
// paths are the one-hop ones, so R has full column rank; with
// `skip_last_link` no path uses link 127 and R is rank deficient.
struct TallChain {
  Graph graph;
  std::vector<Path> paths;
};

TallChain tall_chain(bool skip_last_link) {
  constexpr std::size_t kLinks = 128;
  constexpr std::size_t kPaths = 8192;
  TallChain out{Graph(kLinks + 1), {}};
  for (NodeId u = 0; u < kLinks; ++u) out.graph.add_link(u, u + 1);
  const std::size_t usable = skip_last_link ? kLinks - 1 : kLinks;
  auto run = [&](std::size_t first, std::size_t length) {
    Path p;
    for (std::size_t l = first; l < std::min(first + length, usable); ++l) {
      p.nodes.push_back(l);
      p.links.push_back(l);
    }
    p.nodes.push_back(p.links.back() + 1);
    return p;
  };
  for (std::size_t l = 0; l < usable; ++l) out.paths.push_back(run(l, 1));
  Rng rng(24);
  while (out.paths.size() < kPaths)
    out.paths.push_back(run(rng.index(usable), 1 + rng.index(8)));
  return out;
}

TEST(Estimator, CglsMatchesQr) {
  const TallChain chain = tall_chain(false);
  TomographyEstimator est(chain.graph, chain.paths);
  ASSERT_TRUE(est.ok());
  ASSERT_TRUE(cgls_preferred(est.sparse_r()));
  const Vector y = noisy_measurements(est, 21);
  const auto x_qr =
      least_squares(est.sparse_r().to_dense(), y, LeastSquaresMethod::kQr);
  ASSERT_TRUE(x_qr.has_value());

  obs::MetricsRegistry reg;
  obs::ScopedInstrumentation scope(reg);
  expect_relative_near(est.estimate(y), *x_qr, 1e-9);
  const robust::Expected<Vector> checked = est.try_estimate(y);
  ASSERT_TRUE(checked.ok()) << checked.error_message();
  expect_relative_near(*checked, *x_qr, 1e-9);
  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("tomography.estimate.sparse"), 2u);
  EXPECT_EQ(snap.counter_value("tomography.estimate.dense"), 0u);
  EXPECT_EQ(snap.counter_value("linalg.cgls.solves"), 2u);
}

TEST(Estimator, CglsRefusesBadInputWithoutSolving) {
  const TallChain chain = tall_chain(true);
  obs::MetricsRegistry reg;
  obs::ScopedInstrumentation scope(reg);

  // Unidentifiable: CGLS would converge to some answer without complaint,
  // so the rank check must refuse first.
  TomographyEstimator under(chain.graph, chain.paths);
  ASSERT_FALSE(under.ok());
  ASSERT_TRUE(cgls_preferred(under.sparse_r()));
  const auto rank = under.try_estimate(Vector(chain.paths.size(), 1.0));
  ASSERT_FALSE(rank.ok());
  EXPECT_EQ(rank.error().code, robust::ErrorCode::kRankDeficient);

  const auto dims = under.try_estimate(Vector(chain.paths.size() - 1, 1.0));
  ASSERT_FALSE(dims.ok());
  EXPECT_EQ(dims.error().code, robust::ErrorCode::kDimensionMismatch);

  const obs::MetricsSnapshot snap = reg.snapshot();
  EXPECT_EQ(snap.counter_value("linalg.cgls.solves"), 0u);
  EXPECT_EQ(snap.counter_value("tomography.estimate.sparse"), 0u);
}

TEST(Estimator, PseudoInverseIsLeftInverse) {
  ExampleNetwork net = fig1_network();
  TomographyEstimator est(net.graph, net.paths);
  const Matrix gr = est.pseudo_inverse() * est.sparse_r().to_dense();
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
  const SparseMatrix r = routing_matrix(net.graph, net.paths);
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
