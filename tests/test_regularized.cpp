// Tests for the Tikhonov-regularized estimator.

#include "tomography/regularized.hpp"

#include <gtest/gtest.h>

#include "attack/chosen_victim.hpp"
#include "core/scenario.hpp"
#include "tomography/routing_matrix.hpp"
#include "topology/example_networks.hpp"

namespace scapegoat {
namespace {

class RegularizedTest : public ::testing::Test {
 protected:
  RegularizedTest() : rng_(501), scenario_(Scenario::fig1(rng_)) {}

  // The scenario's R as the dense matrix RegularizedEstimator takes.
  Matrix dense_r() const {
    return scenario_.estimator().sparse_r().to_dense();
  }

  Rng rng_;
  Scenario scenario_;
};

TEST_F(RegularizedTest, LambdaZeroMatchesLeastSquares) {
  RegularizedEstimator reg(dense_r(), 0.0, Vector(10, 10.5));
  ASSERT_TRUE(reg.ok());
  const Vector y = scenario_.clean_measurements();
  EXPECT_TRUE(approx_equal(reg.estimate(y),
                           scenario_.estimator().estimate(y), 1e-7));
}

TEST_F(RegularizedTest, HugeLambdaReturnsThePrior) {
  const Vector prior(10, 10.5);
  RegularizedEstimator reg(dense_r(), 1e12, prior);
  ASSERT_TRUE(reg.ok());
  const Vector x = reg.estimate(scenario_.clean_measurements());
  EXPECT_TRUE(approx_equal(x, prior, 1e-3));
}

TEST_F(RegularizedTest, ModerateLambdaShrinksTowardPrior) {
  const Vector prior(10, 10.5);
  RegularizedEstimator reg(dense_r(), 5.0, prior);
  ASSERT_TRUE(reg.ok());
  // Attack the system, then compare how far each estimator lets the victim
  // estimate run.
  const ExampleNetwork net = fig1_network();
  AttackContext ctx = scenario_.context(net.attackers);
  const AttackResult r = chosen_victim_attack(ctx, {0});
  ASSERT_TRUE(r.success);
  const Vector x_plain = scenario_.estimator().estimate(r.y_observed);
  const Vector x_reg = reg.estimate(r.y_observed);
  EXPECT_LT(x_reg[0], x_plain[0]);  // shrinkage blunts the spike
  EXPECT_GT(x_reg[0], prior[0]);    // but doesn't erase it
}

TEST_F(RegularizedTest, WorksOnUnderdeterminedSystems) {
  // Only 5 paths → rank < 10: Eq. 2 fails, the regularized solve doesn't.
  ExampleNetwork net = fig1_network();
  std::vector<Path> few(net.paths.begin(), net.paths.begin() + 5);
  const SparseMatrix r = routing_matrix(net.graph, few);
  ASSERT_FALSE(is_identifiable(r));
  RegularizedEstimator reg(r.to_dense(), 1.0, Vector(10, 10.5));
  ASSERT_TRUE(reg.ok());
  Vector y(5, 50.0);
  const Vector x = reg.estimate(y);
  EXPECT_EQ(x.size(), 10u);
  for (double xi : x) EXPECT_GE(xi, 0.0);
}

TEST_F(RegularizedTest, HonestBiasGrowsWithLambda) {
  const Vector prior(10, 10.5);
  const Vector y = scenario_.clean_measurements();
  double prev_err = 0.0;
  for (double lambda : {0.0, 1.0, 10.0, 100.0}) {
    RegularizedEstimator reg(dense_r(), lambda, prior);
    ASSERT_TRUE(reg.ok());
    const double err = (reg.estimate(y) - scenario_.x_true()).norm_inf();
    EXPECT_GE(err + 1e-9, prev_err);  // bias is monotone in λ
    prev_err = err;
  }
}

}  // namespace
}  // namespace scapegoat
