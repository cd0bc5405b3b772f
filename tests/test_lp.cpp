// Tests for the LP model and the two-phase simplex solver.

#include <gtest/gtest.h>

#include <limits>

#include "lp/model.hpp"
#include "lp/revised_simplex.hpp"
#include "lp/simplex.hpp"
#include "util/random.hpp"

namespace scapegoat::lp {
namespace {

TEST(Simplex, SimpleMaximization) {
  // max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0 → (4,0), obj 12.
  Model m(Sense::kMaximize);
  auto x = m.add_variable(0, kInfinity, 3.0, "x");
  auto y = m.add_variable(0, kInfinity, 2.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowType::kLessEqual, 4.0);
  m.add_constraint({{x, 1.0}, {y, 3.0}}, RowType::kLessEqual, 6.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 12.0, 1e-8);
  EXPECT_NEAR(s.x[0], 4.0, 1e-8);
  EXPECT_NEAR(s.x[1], 0.0, 1e-8);
}

TEST(Simplex, SimpleMinimizationWithGe) {
  // min 2x + 3y s.t. x + y ≥ 10, x ≤ 6 → x=6, y=4, obj 24.
  Model m(Sense::kMinimize);
  auto x = m.add_variable(0, 6.0, 2.0);
  auto y = m.add_variable(0, kInfinity, 3.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowType::kGreaterEqual, 10.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 24.0, 1e-8);
  EXPECT_NEAR(s.x[0], 6.0, 1e-8);
  EXPECT_NEAR(s.x[1], 4.0, 1e-8);
}

TEST(Simplex, EqualityConstraint) {
  // max x + y s.t. x + y = 5, x ≤ 2 → obj 5.
  Model m(Sense::kMaximize);
  auto x = m.add_variable(0, 2.0, 1.0);
  auto y = m.add_variable(0, kInfinity, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowType::kEqual, 5.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-8);
  EXPECT_NEAR(s.x[0] + s.x[1], 5.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  // x ≤ 1 and x ≥ 2 simultaneously.
  Model m(Sense::kMaximize);
  auto x = m.add_variable(0, kInfinity, 1.0);
  m.add_constraint({{x, 1.0}}, RowType::kLessEqual, 1.0);
  m.add_constraint({{x, 1.0}}, RowType::kGreaterEqual, 2.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualities) {
  Model m(Sense::kMinimize);
  auto x = m.add_variable(0, kInfinity, 1.0);
  auto y = m.add_variable(0, kInfinity, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowType::kEqual, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowType::kEqual, 2.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Model m(Sense::kMaximize);
  auto x = m.add_variable(0, kInfinity, 1.0);
  auto y = m.add_variable(0, kInfinity, 0.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, RowType::kLessEqual, 1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(Simplex, RespectsVariableUpperBounds) {
  Model m(Sense::kMaximize);
  auto x = m.add_variable(0, 7.5, 1.0);
  (void)x;
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 7.5, 1e-9);
}

TEST(Simplex, HandlesShiftedLowerBounds) {
  // min x with x ≥ -3 and x + y = 0, y ≤ 2 → x = -2? No: y ≤ 2 ⇒ x ≥ -2.
  Model m(Sense::kMinimize);
  auto x = m.add_variable(-3.0, kInfinity, 1.0);
  auto y = m.add_variable(0.0, 2.0, 0.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowType::kEqual, 0.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], -2.0, 1e-8);
  EXPECT_NEAR(s.objective, -2.0, 1e-8);
}

TEST(Simplex, HandlesFreeVariables) {
  // min |style| free var: min x s.t. x ≥ -5 via constraint (variable itself
  // is free both ways).
  Model m(Sense::kMinimize);
  auto x = m.add_variable(-kInfinity, kInfinity, 1.0);
  m.add_constraint({{x, 1.0}}, RowType::kGreaterEqual, -5.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], -5.0, 1e-8);
}

TEST(Simplex, NegativeUpperBoundVariable) {
  // Variable confined to [-4, -1], maximize it → -1.
  Model m(Sense::kMaximize);
  m.add_variable(-4.0, -1.0, 1.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], -1.0, 1e-8);
}

TEST(Simplex, DegenerateProblemTerminates) {
  // Classic degenerate LP; must not cycle.
  Model m(Sense::kMaximize);
  auto x1 = m.add_variable(0, kInfinity, 10.0);
  auto x2 = m.add_variable(0, kInfinity, -57.0);
  auto x3 = m.add_variable(0, kInfinity, -9.0);
  auto x4 = m.add_variable(0, kInfinity, -24.0);
  m.add_constraint({{x1, 0.5}, {x2, -5.5}, {x3, -2.5}, {x4, 9.0}},
                   RowType::kLessEqual, 0.0);
  m.add_constraint({{x1, 0.5}, {x2, -1.5}, {x3, -0.5}, {x4, 1.0}},
                   RowType::kLessEqual, 0.0);
  m.add_constraint({{x1, 1.0}}, RowType::kLessEqual, 1.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-7);
}

TEST(Simplex, SolutionIsFeasibleForModel) {
  Model m(Sense::kMaximize);
  auto a = m.add_variable(0, 10, 1.0);
  auto b = m.add_variable(2, 8, 2.0);
  auto c = m.add_variable(-3, 3, -1.0);
  m.add_constraint({{a, 1.0}, {b, 2.0}, {c, 1.0}}, RowType::kLessEqual, 15.0);
  m.add_constraint({{a, 1.0}, {b, -1.0}}, RowType::kGreaterEqual, -4.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LE(m.max_violation(s.x), 1e-7);
  EXPECT_NEAR(m.objective_value(s.x), s.objective, 1e-9);
}

// Property sweep: random small LPs with box bounds and ≤ rows are always
// feasible (origin-ish point inside); simplex must return optimal and the
// solution must satisfy the model within tolerance. Compare against a coarse
// grid-search lower bound to catch gross suboptimality.
class RandomLpSweep : public ::testing::TestWithParam<int> {};

TEST_P(RandomLpSweep, OptimalAndFeasible) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  const std::size_t n = 2 + rng.index(3);   // 2-4 vars
  const std::size_t rows = 1 + rng.index(4);
  Model m(Sense::kMaximize);
  for (std::size_t j = 0; j < n; ++j)
    m.add_variable(0.0, rng.uniform(0.5, 4.0), rng.uniform(-1.0, 2.0));
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (std::size_t j = 0; j < n; ++j)
      terms.push_back({j, rng.uniform(0.0, 1.0)});
    m.add_constraint(std::move(terms), RowType::kLessEqual,
                     rng.uniform(1.0, 6.0));
  }
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LE(m.max_violation(s.x), 1e-6);

  // Coarse grid search cannot beat the simplex optimum.
  const int steps = 6;
  std::vector<double> x(n, 0.0);
  double best = -1e100;
  std::vector<int> idx(n, 0);
  while (true) {
    for (std::size_t j = 0; j < n; ++j)
      x[j] = m.variable(j).upper * idx[j] / steps;
    if (m.max_violation(x) <= 1e-9)
      best = std::max(best, m.objective_value(x));
    std::size_t j = 0;
    while (j < n && ++idx[j] > steps) idx[j++] = 0;
    if (j == n) break;
  }
  EXPECT_GE(s.objective, best - 1e-6);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomLpSweep, ::testing::Range(0, 25));

TEST(Simplex, IterationLimitReturnsBasisCertificate) {
  // A healthy LP starved of pivots: the solver must stop at the cap and
  // hand back the basis + basic point it reached, never an empty result.
  Rng rng(13);
  const std::size_t n = 12;
  Model m(Sense::kMaximize);
  for (std::size_t j = 0; j < n; ++j)
    m.add_variable(0.0, rng.uniform(1.0, 4.0), rng.uniform(0.5, 2.0));
  for (std::size_t c = 0; c < 10; ++c) {
    std::vector<Term> terms;
    for (std::size_t j = 0; j < n; ++j)
      terms.push_back({j, rng.uniform(0.0, 1.0)});
    m.add_constraint(std::move(terms), RowType::kLessEqual,
                     rng.uniform(1.0, 6.0));
  }

  SimplexOptions tight;
  tight.max_iterations = 1;
  const Solution starved = solve(m, tight);
  ASSERT_EQ(starved.status, SolveStatus::kIterationLimit);
  EXPECT_LE(starved.iterations, tight.max_iterations + 1);
  EXPECT_FALSE(starved.basis.empty());     // the certificate
  EXPECT_EQ(starved.x.size(), n);          // the point it stopped at

  // The certificate is real state: with the budget restored the same model
  // solves, and its exit basis has the same shape (one column per row).
  const Solution full = solve(m);
  ASSERT_EQ(full.status, SolveStatus::kOptimal);
  EXPECT_EQ(full.basis.size(), starved.basis.size());
  EXPECT_LE(m.max_violation(full.x), 1e-6);
}

TEST(Simplex, OptimalSolutionCarriesExitBasis) {
  Model m(Sense::kMaximize);
  auto x = m.add_variable(0, kInfinity, 3.0, "x");
  auto y = m.add_variable(0, kInfinity, 2.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, RowType::kLessEqual, 4.0);
  m.add_constraint({{x, 1.0}, {y, 3.0}}, RowType::kLessEqual, 6.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  ASSERT_EQ(s.basis.size(), 2u);  // one basic column per constraint row
}

// A malformed model is refused by both solvers — kInfeasible, no pivots, no
// point — instead of being indexed or pivoted on.
void expect_refused(const Model& m) {
  EXPECT_FALSE(m.well_formed());
  for (const Solution& s : {solve_tableau(m), solve_revised(m), solve(m)}) {
    EXPECT_EQ(s.status, SolveStatus::kInfeasible);
    EXPECT_EQ(s.iterations, 0u);
    EXPECT_TRUE(s.x.empty());
    EXPECT_TRUE(s.basis.empty());
  }
}

Model two_variable_model() {
  Model m(Sense::kMaximize);
  m.add_variable(0.0, 4.0, 1.0);
  m.add_variable(-1.0, kInfinity, 1.0);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, RowType::kLessEqual, 5.0);
  return m;
}

TEST(MalformedModel, TermNamingUnknownVariableIsRefused) {
  Model m = two_variable_model();
  m.add_constraint({{0, 1.0}, {2, 1.0}}, RowType::kGreaterEqual, 1.0);
  expect_refused(m);
  Model far = two_variable_model();
  far.add_constraint({{std::numeric_limits<std::size_t>::max(), 1.0}},
                     RowType::kEqual, 0.0);
  expect_refused(far);
}

TEST(MalformedModel, NonFiniteCoefficientIsRefused) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), kInfinity,
                     -kInfinity}) {
    Model m = two_variable_model();
    m.add_constraint({{0, 1.0}, {1, bad}}, RowType::kLessEqual, 3.0);
    expect_refused(m);
  }
}

TEST(MalformedModel, NonFiniteRhsIsRefused) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), kInfinity,
                     -kInfinity}) {
    Model m = two_variable_model();
    m.add_constraint({{0, 1.0}}, RowType::kGreaterEqual, bad);
    expect_refused(m);
  }
}

TEST(MalformedModel, WellFormedModelStillSolves) {
  const Model m = two_variable_model();
  EXPECT_TRUE(m.well_formed());
  const Solution s = solve_tableau(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

}  // namespace
}  // namespace scapegoat::lp
