// Tests for the spectral-conditioning estimator.

#include "linalg/conditioning.hpp"

#include <gtest/gtest.h>

#include "tomography/routing_matrix.hpp"
#include "topology/example_networks.hpp"
#include "util/random.hpp"

namespace scapegoat {
namespace {

TEST(Conditioning, IdentityIsPerfectlyConditioned) {
  auto est = estimate_condition(Matrix::identity(6));
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->sigma_max, 1.0, 1e-8);
  EXPECT_NEAR(est->sigma_min, 1.0, 1e-8);
  EXPECT_NEAR(est->condition(), 1.0, 1e-8);
}

TEST(Conditioning, DiagonalMatrixExactSingularValues) {
  Matrix d(4, 4);
  d(0, 0) = 10.0;
  d(1, 1) = 5.0;
  d(2, 2) = 2.0;
  d(3, 3) = 0.5;
  auto est = estimate_condition(d);
  ASSERT_TRUE(est.has_value());
  EXPECT_NEAR(est->sigma_max, 10.0, 1e-6);
  EXPECT_NEAR(est->sigma_min, 0.5, 1e-6);
  EXPECT_NEAR(est->condition(), 20.0, 1e-4);
}

TEST(Conditioning, ScalingIsHomogeneous) {
  Rng rng(441);
  Matrix a(8, 4);
  for (std::size_t r = 0; r < 8; ++r)
    for (std::size_t c = 0; c < 4; ++c) a(r, c) = rng.uniform(-1, 1);
  auto base = estimate_condition(a);
  ASSERT_TRUE(base.has_value());
  auto scaled = estimate_condition(3.0 * a);
  ASSERT_TRUE(scaled.has_value());
  EXPECT_NEAR(scaled->sigma_max, 3.0 * base->sigma_max, 1e-5);
  EXPECT_NEAR(scaled->condition(), base->condition(), 1e-4);
}

TEST(Conditioning, RejectsRankDeficientAndWide) {
  Matrix wide(2, 4, 1.0);
  EXPECT_FALSE(estimate_condition(wide).has_value());
  Matrix rank1(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    rank1(r, 0) = 1.0;
    rank1(r, 1) = 2.0;  // second column = 2 × first
  }
  EXPECT_FALSE(estimate_condition(rank1).has_value());
  EXPECT_FALSE(estimate_condition(Matrix()).has_value());
}

TEST(Conditioning, BoundsHoldOnRoutingMatrix) {
  ExampleNetwork net = fig1_network();
  const Matrix r = routing_matrix(net.graph, net.paths).to_dense();
  auto est = estimate_condition(r);
  ASSERT_TRUE(est.has_value());
  EXPECT_GE(est->sigma_max, est->sigma_min);
  EXPECT_GT(est->sigma_min, 0.0);
  // Frobenius bound: σ_max ≤ ‖R‖_F ≤ √rank · σ_max.
  EXPECT_LE(est->sigma_max, r.norm_fro() + 1e-9);
  EXPECT_GE(est->condition(), 1.0);
}

}  // namespace
}  // namespace scapegoat
