// Tests for the least-squares entry point and the Tikhonov RidgeSolver.

#include "linalg/least_squares.hpp"

#include <gtest/gtest.h>

#include "attack/chosen_victim.hpp"
#include "core/scenario.hpp"
#include "linalg/qr.hpp"
#include "tomography/routing_matrix.hpp"
#include "topology/example_networks.hpp"
#include "util/random.hpp"

namespace scapegoat {
namespace {

TEST(LeastSquares, QrAndNormalEquationsAgree) {
  Rng rng(21);
  Matrix a(15, 6);
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c) a(r, c) = rng.uniform(-2, 2);
  Vector b(15);
  for (std::size_t i = 0; i < b.size(); ++i) b[i] = rng.uniform(-5, 5);

  auto x_qr = least_squares(a, b);
  auto x_ne = solve_normal_equations(a, b);
  ASSERT_TRUE(x_qr.has_value());
  ASSERT_TRUE(x_ne.has_value());
  EXPECT_TRUE(approx_equal(*x_qr, *x_ne, 1e-7));
}

TEST(LeastSquares, RejectsUnderdeterminedSystem) {
  Matrix a(2, 5, 1.0);
  Vector b{1.0, 2.0};
  EXPECT_FALSE(least_squares(a, b).has_value());
}

TEST(LeastSquares, RejectsRankDeficientColumns) {
  Matrix a(4, 2);
  for (std::size_t r = 0; r < 4; ++r) {
    a(r, 0) = static_cast<double>(r + 1);
    a(r, 1) = 2.0 * static_cast<double>(r + 1);
  }
  EXPECT_FALSE(least_squares(a, Vector(4, 1.0)).has_value());
  EXPECT_FALSE(solve_normal_equations(a, Vector(4, 1.0)).has_value());
}

TEST(LeastSquares, ResidualOrthogonalToColumns) {
  Matrix a{{1.0, 1.0}, {1.0, 2.0}, {1.0, 3.0}, {1.0, 4.0}};
  Vector b{6.0, 5.0, 7.0, 10.0};
  auto x = least_squares(a, b);
  ASSERT_TRUE(x.has_value());
  Vector r = residual(a, *x, b);
  EXPECT_NEAR((a.transposed() * r).norm_inf(), 0.0, 1e-10);
}

// RidgeSolver as the regularized defender: the Fig. 1 scenario's R with a
// prior of 10.5 ms per link.
class RegularizedTest : public ::testing::Test {
 protected:
  RegularizedTest() : rng_(501), scenario_(Scenario::fig1(rng_)) {}

  Matrix dense_r() const {
    return scenario_.estimator().sparse_r().to_dense();
  }

  Rng rng_;
  Scenario scenario_;
};

TEST_F(RegularizedTest, LambdaZeroMatchesLeastSquares) {
  RidgeSolver reg(dense_r(), 0.0, Vector(10, 10.5));
  ASSERT_TRUE(reg.ok());
  const Vector y = scenario_.clean_measurements();
  EXPECT_TRUE(approx_equal(reg.solve(y), scenario_.estimator().estimate(y),
                           1e-7));
}

TEST_F(RegularizedTest, HugeLambdaReturnsThePrior) {
  const Vector prior(10, 10.5);
  RidgeSolver reg(dense_r(), 1e12, prior);
  ASSERT_TRUE(reg.ok());
  const Vector x = reg.solve(scenario_.clean_measurements());
  EXPECT_TRUE(approx_equal(x, prior, 1e-3));
}

TEST_F(RegularizedTest, ModerateLambdaShrinksTowardPrior) {
  const Vector prior(10, 10.5);
  RidgeSolver reg(dense_r(), 5.0, prior);
  ASSERT_TRUE(reg.ok());
  // Attack the system, then compare how far each estimator lets the victim
  // estimate run.
  const ExampleNetwork net = fig1_network();
  AttackContext ctx = scenario_.context(net.attackers);
  const AttackResult r = chosen_victim_attack(ctx, {0});
  ASSERT_TRUE(r.success);
  const Vector x_plain = scenario_.estimator().estimate(r.y_observed);
  const Vector x_reg = reg.solve(r.y_observed);
  EXPECT_LT(x_reg[0], x_plain[0]);  // shrinkage blunts the spike
  EXPECT_GT(x_reg[0], prior[0]);    // but doesn't erase it
}

TEST_F(RegularizedTest, WorksOnUnderdeterminedSystems) {
  // Only 5 paths → rank < 10: Eq. 2 fails, the regularized solve doesn't.
  ExampleNetwork net = fig1_network();
  std::vector<Path> few(net.paths.begin(), net.paths.begin() + 5);
  const SparseMatrix r = routing_matrix(net.graph, few);
  ASSERT_FALSE(is_identifiable(r));
  RidgeSolver reg(r.to_dense(), 1.0, Vector(10, 10.5));
  ASSERT_TRUE(reg.ok());
  Vector y(5, 50.0);
  const Vector x = reg.solve(y);
  EXPECT_EQ(x.size(), 10u);
  for (double xi : x) EXPECT_GE(xi, 0.0);
}

TEST_F(RegularizedTest, HonestBiasGrowsWithLambda) {
  const Vector prior(10, 10.5);
  const Vector y = scenario_.clean_measurements();
  double prev_err = 0.0;
  for (double lambda : {0.0, 1.0, 10.0, 100.0}) {
    RidgeSolver reg(dense_r(), lambda, prior);
    ASSERT_TRUE(reg.ok());
    const double err = (reg.solve(y) - scenario_.x_true()).norm_inf();
    EXPECT_GE(err + 1e-9, prev_err);  // bias is monotone in λ
    prev_err = err;
  }
}

}  // namespace
}  // namespace scapegoat
