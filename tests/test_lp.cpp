// Tests for the LP model and the two-phase simplex solver.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "util/random.hpp"

namespace scapegoat::lp {
namespace {

TEST(Simplex, SimpleMaximization) {
  // max 3x + 2y s.t. x + y ≤ 4, x + 3y ≤ 6, x,y ≥ 0 → (4,0), obj 12.
  Model m(Sense::kMaximize);
  auto x = m.add_variable(0, kInfinity, 3.0, "x");
  auto y = m.add_variable(0, kInfinity, 2.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, -kInfinity, 4.0);
  m.add_constraint({{x, 1.0}, {y, 3.0}}, -kInfinity, 6.0);
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
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 10.0, kInfinity);
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
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 5.0, 5.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-8);
  EXPECT_NEAR(s.x[0] + s.x[1], 5.0, 1e-8);
}

TEST(Simplex, DetectsInfeasibility) {
  // x ≤ 1 and x ≥ 2 simultaneously.
  Model m(Sense::kMaximize);
  auto x = m.add_variable(0, kInfinity, 1.0);
  m.add_constraint({{x, 1.0}}, -kInfinity, 1.0);
  m.add_constraint({{x, 1.0}}, 2.0, kInfinity);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsInfeasibleEqualities) {
  Model m(Sense::kMinimize);
  auto x = m.add_variable(0, kInfinity, 1.0);
  auto y = m.add_variable(0, kInfinity, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 1.0, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 2.0, 2.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(Simplex, DetectsUnboundedness) {
  Model m(Sense::kMaximize);
  auto x = m.add_variable(0, kInfinity, 1.0);
  auto y = m.add_variable(0, kInfinity, 0.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, -kInfinity, 1.0);
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
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 0.0, 0.0);
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
  m.add_constraint({{x, 1.0}}, -5.0, kInfinity);
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
                   -kInfinity, 0.0);
  m.add_constraint({{x1, 0.5}, {x2, -1.5}, {x3, -0.5}, {x4, 1.0}},
                   -kInfinity, 0.0);
  m.add_constraint({{x1, 1.0}}, -kInfinity, 1.0);
  Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-7);
}

TEST(Simplex, SolutionIsFeasibleForModel) {
  Model m(Sense::kMaximize);
  auto a = m.add_variable(0, 10, 1.0);
  auto b = m.add_variable(2, 8, 2.0);
  auto c = m.add_variable(-3, 3, -1.0);
  m.add_constraint({{a, 1.0}, {b, 2.0}, {c, 1.0}}, -kInfinity, 15.0);
  m.add_constraint({{a, 1.0}, {b, -1.0}}, -4.0, kInfinity);
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
    m.add_constraint(std::move(terms), -kInfinity,
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
    m.add_constraint(std::move(terms), -kInfinity,
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
  m.add_constraint({{x, 1.0}, {y, 1.0}}, -kInfinity, 4.0);
  m.add_constraint({{x, 1.0}, {y, 3.0}}, -kInfinity, 6.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  ASSERT_EQ(s.basis.size(), 2u);  // one basic column per constraint row
}

// A malformed model is refused — kInfeasible, no pivots, no point —
// instead of being indexed or pivoted on.
void expect_refused(const Model& m) {
  EXPECT_FALSE(m.well_formed());
  const Solution s = solve(m);
  EXPECT_EQ(s.status, SolveStatus::kInfeasible);
  EXPECT_EQ(s.iterations, 0u);
  EXPECT_TRUE(s.x.empty());
  EXPECT_TRUE(s.basis.empty());
}

Model two_variable_model() {
  Model m(Sense::kMaximize);
  m.add_variable(0.0, 4.0, 1.0);
  m.add_variable(-1.0, kInfinity, 1.0);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, -kInfinity, 5.0);
  return m;
}

TEST(MalformedModel, TermNamingUnknownVariableIsRefused) {
  Model m = two_variable_model();
  m.add_constraint({{0, 1.0}, {2, 1.0}}, 1.0, kInfinity);
  expect_refused(m);
  Model far = two_variable_model();
  far.add_constraint({{std::numeric_limits<std::size_t>::max(), 1.0}},
                     0.0, 0.0);
  expect_refused(far);
}

TEST(MalformedModel, NonFiniteCoefficientIsRefused) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), kInfinity,
                     -kInfinity}) {
    Model m = two_variable_model();
    m.add_constraint({{0, 1.0}, {1, bad}}, -kInfinity, 3.0);
    expect_refused(m);
  }
}

TEST(MalformedModel, NonFiniteRhsIsRefused) {
  for (double bad : {std::numeric_limits<double>::quiet_NaN(), kInfinity,
                     -kInfinity}) {
    Model m = two_variable_model();
    m.add_constraint({{0, 1.0}}, bad, kInfinity);
    expect_refused(m);
  }
}

TEST(MalformedModel, NanBoundIsRefused) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Model lower = two_variable_model();
  lower.add_variable(nan, 1.0, 1.0);
  expect_refused(lower);
  Model upper = two_variable_model();
  upper.add_variable(0.0, nan, 1.0);
  expect_refused(upper);
}

TEST(MalformedModel, InfiniteLowerBoundAtPlusInfinityIsRefused) {
  Model m = two_variable_model();
  m.add_variable(kInfinity, kInfinity, 1.0);
  expect_refused(m);
}

TEST(MalformedModel, UpperBoundAtMinusInfinityIsRefused) {
  Model m = two_variable_model();
  m.add_variable(-kInfinity, -kInfinity, 1.0);
  expect_refused(m);
}

TEST(MalformedModel, LowerAboveUpperIsRefused) {
  Model m = two_variable_model();
  m.add_variable(2.0, 1.0, 1.0);
  expect_refused(m);
}

TEST(MalformedModel, RowWithLowerAboveUpperIsRefused) {
  Model m = two_variable_model();
  m.add_constraint({{0, 1.0}}, 2.0, 1.0);
  expect_refused(m);
}

TEST(MalformedModel, RowWithANanEndIsRefused) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  Model lower = two_variable_model();
  lower.add_constraint({{0, 1.0}}, nan, 1.0);
  expect_refused(lower);
  Model upper = two_variable_model();
  upper.add_constraint({{0, 1.0}}, 0.0, nan);
  expect_refused(upper);
}

TEST(MalformedModel, RowWithLowerEndAtPlusInfinityIsRefused) {
  Model m = two_variable_model();
  m.add_constraint({{0, 1.0}}, kInfinity, kInfinity);
  expect_refused(m);
}

TEST(MalformedModel, RowWithUpperEndAtMinusInfinityIsRefused) {
  Model m = two_variable_model();
  m.add_constraint({{0, 1.0}}, -kInfinity, -kInfinity);
  expect_refused(m);
}

TEST(MalformedModel, RowOpenAtBothEndsIsRefused) {
  Model m = two_variable_model();
  m.add_constraint({{0, 1.0}}, -kInfinity, kInfinity);
  expect_refused(m);
}

TEST(MalformedModel, WellFormedModelStillSolves) {
  const Model m = two_variable_model();
  EXPECT_TRUE(m.well_formed());
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 5.0, 1e-9);
}

// ---- Bounded-variable tableau ---------------------------------------------
//
// A doubly-bounded variable has no row of its own: it sits at either bound
// while nonbasic, and reaching its own upper bound first is a bound flip,
// counted apart from the pivots.

struct CountedSolve {
  Solution solution;
  std::uint64_t flips = 0;
};

CountedSolve solve_counting_flips(const Model& m) {
  obs::MetricsRegistry registry;
  CountedSolve out;
  {
    obs::ScopedInstrumentation inst(registry);
    out.solution = solve(m);
  }
  out.flips = registry.snapshot().counter_value("lp.simplex.bound_flips");
  return out;
}

TEST(BoundedTableau, EnteringColumnFlipsToItsUpperBound) {
  // max x0 + x1 s.t. x0 + x1 ≤ 5, x0, x1 ∈ [0, 3]: x0 reaches 3 before the
  // row binds, so it flips; x1 then enters and stops at 2.
  Model m(Sense::kMaximize);
  m.add_variable(0.0, 3.0, 1.0);
  m.add_variable(0.0, 3.0, 1.0);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, -kInfinity, 5.0);
  const CountedSolve c = solve_counting_flips(m);
  ASSERT_EQ(c.solution.status, SolveStatus::kOptimal);
  EXPECT_NEAR(c.solution.objective, 5.0, 1e-12);
  EXPECT_GE(c.flips, 1u);
  EXPECT_LE(m.max_violation(c.solution.x), 1e-12);
}

TEST(BoundedTableau, BoxesWithoutRowsSolveByFlipsAlone) {
  // No constraint rows: every variable ends at the bound its objective
  // favours, reached by flips with no pivot and an empty basis.
  Model m(Sense::kMaximize);
  m.add_variable(0.0, 4.0, 2.0);    // → 4 (flip)
  m.add_variable(-1.0, 3.0, -1.0);  // → -1 (stays at its lower bound)
  m.add_variable(1.0, 2.5, 0.0);    // → 1 (no reason to move)
  m.add_variable(-3.0, -2.0, 0.5);  // → -2 (flip)
  const CountedSolve c = solve_counting_flips(m);
  ASSERT_EQ(c.solution.status, SolveStatus::kOptimal);
  EXPECT_EQ(c.solution.iterations, 0u);
  EXPECT_TRUE(c.solution.basis.empty());
  EXPECT_EQ(c.flips, 2u);
  ASSERT_EQ(c.solution.x.size(), 4u);
  EXPECT_EQ(c.solution.x[0], 4.0);
  EXPECT_EQ(c.solution.x[1], -1.0);
  EXPECT_EQ(c.solution.x[2], 1.0);
  EXPECT_EQ(c.solution.x[3], -2.0);
  EXPECT_EQ(c.solution.objective, 8.0);
}

TEST(BoundedTableau, BasisHasOneColumnPerModelRow) {
  Rng rng(31);
  Model m(Sense::kMaximize);
  for (std::size_t j = 0; j < 8; ++j)
    m.add_variable(0.0, rng.uniform(1.0, 3.0), rng.uniform(0.5, 2.0));
  for (std::size_t i = 0; i < 5; ++i) {
    std::vector<Term> terms;
    for (std::size_t j = 0; j < 8; ++j)
      terms.push_back({j, rng.uniform(0.1, 1.0)});
    if (i % 2 == 0)
      m.add_constraint(std::move(terms), -kInfinity, rng.uniform(3.0, 6.0));
    else
      m.add_constraint(std::move(terms), 0.5, kInfinity);
  }
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.basis.size(), m.num_constraints());
  EXPECT_LE(m.max_violation(s.x), 1e-9);
}

TEST(BoundedTableau, FixedVariableStaysFixedUnderMaximization) {
  // x1 is fixed at 2 although the objective would push it up; x0 takes what
  // the row leaves.
  Model m(Sense::kMaximize);
  m.add_variable(0.0, kInfinity, 1.0);
  m.add_variable(2.0, 2.0, 5.0);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, -kInfinity, 10.0);
  EXPECT_TRUE(m.well_formed());
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.x[1], 2.0);
  EXPECT_NEAR(s.x[0], 8.0, 1e-12);
  EXPECT_NEAR(s.objective, 18.0, 1e-12);
}

// ---- Ranged rows ------------------------------------------------------------
//
// A row lower ≤ aᵀx ≤ upper with lower < upper has one slack s′ with range
// upper − lower. Column ids are the structurals, then the slacks in row
// order, then the artificials, so a solve allowed no pivot shows the
// starting basis.

std::vector<std::size_t> starting_basis(const Model& m) {
  SimplexOptions no_pivots;
  no_pivots.max_iterations = 0;
  const Solution s = solve(m, no_pivots);
  EXPECT_EQ(s.status, SolveStatus::kIterationLimit);
  return s.basis;
}

TEST(RangedRow, SlackInsideItsRangeStartsBasic) {
  // −1 ≤ x ≤ 5 with x ∈ [0, 10] starting at 0: s′ = x + 1 = 1 lies in
  // [0, 6], so the slack (column 1) starts basic and there is no phase 1.
  Model m(Sense::kMaximize);
  m.add_variable(0.0, 10.0, 0.0);
  m.add_constraint({{0, 1.0}}, -1.0, 5.0);
  EXPECT_EQ(starting_basis(m), std::vector<std::size_t>{1});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_EQ(s.iterations, 0u);
  EXPECT_EQ(s.x[0], 0.0);
}

TEST(RangedRow, SlackBelowItsRangeStartsAtZeroBehindAnArtificial) {
  // 1 ≤ x ≤ 5 with x ∈ [0, 10] starting at 0: s′ = x − 1 = −1, so the
  // slack starts nonbasic at 0 and the artificial (column 2) is basic.
  Model m(Sense::kMinimize);
  m.add_variable(0.0, 10.0, 1.0);
  m.add_constraint({{0, 1.0}}, 1.0, 5.0);
  EXPECT_EQ(starting_basis(m), std::vector<std::size_t>{2});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 1.0, 1e-12);
  EXPECT_NEAR(s.objective, 1.0, 1e-12);
}

TEST(RangedRow, SlackAboveItsRangeStartsReflectedBehindAnArtificial) {
  // 1 ≤ x − y ≤ 5 with x ∈ [7, 10], y ∈ [0, 10] starting at (7, 0):
  // s′ = x − y − 1 = 6 is above its range 4, so the slack starts reflected
  // at 4 and the artificial (column 3) carries the remaining 2. One phase-1
  // pivot, y entering up to 2, then lands on the optimum of min y with no
  // flip. (A slack started at 0 instead would leave y at 6 and need a flip
  // of the slack to its range.)
  Model m(Sense::kMinimize);
  m.add_variable(7.0, 10.0, 0.0);
  m.add_variable(0.0, 10.0, 1.0);
  m.add_constraint({{0, 1.0}, {1, -1.0}}, 1.0, 5.0);
  EXPECT_EQ(starting_basis(m), std::vector<std::size_t>{3});
  const CountedSolve c = solve_counting_flips(m);
  ASSERT_EQ(c.solution.status, SolveStatus::kOptimal);
  EXPECT_EQ(c.solution.iterations, 1u);
  EXPECT_EQ(c.flips, 0u);
  EXPECT_NEAR(c.solution.x[0], 7.0, 1e-12);
  EXPECT_NEAR(c.solution.x[1], 2.0, 1e-12);
  EXPECT_NEAR(c.solution.objective, 2.0, 1e-12);
}

TEST(RangedRow, BasicSlackLeavesTheBasisAtItsRange) {
  // max x s.t. −1 ≤ x ≤ 5, x ∈ [0, 10]: as x enters, the basic slack
  // s′ = x + 1 reaches its range 6 (x = 5) before x reaches its own bound,
  // so it leaves there: one pivot, no flip.
  Model m(Sense::kMaximize);
  m.add_variable(0.0, 10.0, 1.0);
  m.add_constraint({{0, 1.0}}, -1.0, 5.0);
  const CountedSolve c = solve_counting_flips(m);
  ASSERT_EQ(c.solution.status, SolveStatus::kOptimal);
  EXPECT_EQ(c.solution.iterations, 1u);
  EXPECT_EQ(c.flips, 0u);
  EXPECT_EQ(c.solution.basis, std::vector<std::size_t>{0});
  EXPECT_NEAR(c.solution.x[0], 5.0, 1e-12);
}

TEST(RangedRow, EqualityRowHasNoSlack) {
  // x + y = 3 written as lower == upper: no slack column, so the artificial
  // is column 2. max x − y over x, y ∈ [0, 5] → (3, 0).
  Model m(Sense::kMaximize);
  m.add_variable(0.0, 5.0, 1.0);
  m.add_variable(0.0, 5.0, -1.0);
  m.add_constraint({{0, 1.0}, {1, 1.0}}, 3.0, 3.0);
  EXPECT_EQ(starting_basis(m), std::vector<std::size_t>{2});
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], 3.0, 1e-12);
  EXPECT_NEAR(s.x[1], 0.0, 1e-12);
  EXPECT_NEAR(s.objective, 3.0, 1e-12);
}

TEST(RangedRow, MaxViolationMeasuresTheViolatedEnd) {
  Model m(Sense::kMaximize);
  m.add_variable(-10.0, 10.0, 0.0);
  m.add_constraint({{0, 2.0}}, 1.0, 5.0);
  EXPECT_EQ(m.max_violation({0.0}), 1.0);  // 2x = 0: 1 below lower
  EXPECT_EQ(m.max_violation({1.5}), 0.0);
  EXPECT_EQ(m.max_violation({4.0}), 3.0);  // 2x = 8: 3 above upper
  Model eq(Sense::kMaximize);
  eq.add_variable(-10.0, 10.0, 0.0);
  eq.add_constraint({{0, 1.0}}, 2.0, 2.0);
  EXPECT_EQ(eq.max_violation({3.0}), 1.0);
  EXPECT_EQ(eq.max_violation({1.0}), 1.0);
  EXPECT_EQ(eq.max_violation({2.0}), 0.0);
}

// ---- Known-answer battery ------------------------------------------------
//
// These cases were written for the revised simplex that lp::solve once
// switched to on large models; they keep their suite name and run the same
// models and assertions through lp::solve, the one solver now.

TEST(RevisedSimplex, SolvesKnownMaximization) {
  // max x + y  s.t.  x + y <= 1.5, x,y in [0,1] → 1.5.
  Model m(Sense::kMaximize);
  const std::size_t x = m.add_variable(0.0, 1.0, 1.0, "x");
  const std::size_t y = m.add_variable(0.0, 1.0, 1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, -kInfinity, 1.5);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.5, 1e-9);
  EXPECT_LE(m.max_violation(s.x), 1e-9);
  EXPECT_EQ(s.basis.size(), 1u);
}

TEST(RevisedSimplex, SolvesKnownMinimization) {
  // min x + 2y  s.t.  x + y = 2, x,y in [0,3] → x=2, y=0, objective 2.
  Model m(Sense::kMinimize);
  const std::size_t x = m.add_variable(0.0, 3.0, 1.0, "x");
  const std::size_t y = m.add_variable(0.0, 3.0, 2.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 2.0, 2.0);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 2.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
}

TEST(RevisedSimplex, DetectsInfeasibility) {
  Model m(Sense::kMaximize);
  const std::size_t x = m.add_variable(0.0, 1.0, 1.0);
  m.add_constraint({{x, 1.0}}, 2.0, kInfinity);
  EXPECT_EQ(solve(m).status, SolveStatus::kInfeasible);
}

TEST(RevisedSimplex, DetectsUnboundedness) {
  Model m(Sense::kMaximize);
  const std::size_t x = m.add_variable(0.0, kInfinity, 1.0);
  const std::size_t y = m.add_variable(0.0, kInfinity, 0.0);
  m.add_constraint({{x, 1.0}, {y, -1.0}}, -kInfinity, 1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(RevisedSimplex, HandlesFreeVariables) {
  // min 2x + y with x free, y in [0, 10]: on x + y = 1 the objective is
  // x + 1, so the row x >= -3 binds at x = -3, y = 4, objective -2.
  Model m(Sense::kMinimize);
  const std::size_t x = m.add_variable(-kInfinity, kInfinity, 2.0, "x");
  const std::size_t y = m.add_variable(0.0, 10.0, 1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 1.0, 1.0);
  m.add_constraint({{x, 1.0}}, -3.0, kInfinity);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.x[0], -3.0, 1e-8);
  EXPECT_NEAR(s.x[1], 4.0, 1e-8);
  EXPECT_NEAR(s.objective, -2.0, 1e-8);
}

TEST(RevisedSimplex, NegativeAndShiftedBounds) {
  // max x + y over x in [-5, -1], y in [2, 4], x + y <= 1: the row binds,
  // so the objective is 1.
  Model m(Sense::kMaximize);
  const std::size_t x = m.add_variable(-5.0, -1.0, 1.0);
  const std::size_t y = m.add_variable(2.0, 4.0, 1.0);
  m.add_constraint({{x, 1.0}, {y, 1.0}}, -kInfinity, 1.0);

  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 1.0, 1e-9);
  EXPECT_LE(m.max_violation(s.x), 1e-9);
}

TEST(RevisedSimplex, PureBoundFlipProblem) {
  // No row at all: the optimum is one bound per variable, no basis change.
  Model m(Sense::kMaximize);
  m.add_variable(-1.0, 2.0, 3.0);
  m.add_variable(0.0, 4.0, -1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 6.0, 1e-9);
  EXPECT_NEAR(s.x[0], 2.0, 1e-9);
  EXPECT_NEAR(s.x[1], 0.0, 1e-9);
}

TEST(RevisedSimplex, UnboundedWithoutConstraints) {
  Model m(Sense::kMaximize);
  m.add_variable(0.0, kInfinity, 1.0);
  EXPECT_EQ(solve(m).status, SolveStatus::kUnbounded);
}

TEST(RevisedSimplex, EqualityChainSystem) {
  // x1 = 1, x_{k+1} - x_k = 1 → x_k = k (unique feasible point).
  Model m(Sense::kMaximize);
  const std::size_t n = 20;
  for (std::size_t j = 0; j < n; ++j)
    m.add_variable(0.0, kInfinity, j + 1 == n ? -1.0 : 0.0);
  m.add_constraint({{0, 1.0}}, 1.0, 1.0);
  for (std::size_t j = 0; j + 1 < n; ++j)
    m.add_constraint({{j + 1, 1.0}, {j, -1.0}}, 1.0, 1.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  for (std::size_t j = 0; j < n; ++j)
    EXPECT_NEAR(s.x[j], static_cast<double>(j + 1), 1e-7);
}

TEST(RevisedSimplex, RedundantRowsDoNotConfusePhase1) {
  Model m(Sense::kMaximize);
  auto x = m.add_variable(0.0, kInfinity, 1.0);
  auto y = m.add_variable(0.0, kInfinity, 1.0);
  for (int rep = 0; rep < 3; ++rep)
    m.add_constraint({{x, 1.0}, {y, 1.0}}, 4.0, 4.0);
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_NEAR(s.objective, 4.0, 1e-8);
}

TEST(RevisedSimplex, IterationLimitReturnsCertificate) {
  Rng rng(31337);
  Model m(Sense::kMaximize);
  const std::size_t vars = 40, rows = 25;
  for (std::size_t j = 0; j < vars; ++j) m.add_variable(0.0, 100.0, 1.0);
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (std::size_t j = 0; j < vars; ++j)
      terms.push_back({j, rng.uniform(0.1, 1.0)});
    m.add_constraint(std::move(terms), -kInfinity,
                     rng.uniform(50.0, 200.0));
  }
  SimplexOptions opt;
  opt.max_iterations = 3;  // guaranteed to stop mid-flight
  const Solution s = solve(m, opt);
  ASSERT_EQ(s.status, SolveStatus::kIterationLimit);
  EXPECT_EQ(s.basis.size(), rows);      // the exit basis, not an empty husk
  EXPECT_EQ(s.x.size(), vars);          // the basic point where it stopped
  EXPECT_LE(s.iterations, 3u);
}

TEST(RevisedSimplex, RefactorizationSurvivesLongPivotSequences) {
  // 60 boxed variables under 45 mixed-sign rows: a long run of pivots and
  // flips whose optimum must still verify against feasibility and a Monte
  // Carlo bound.
  Rng rng(777);
  Model m(Sense::kMaximize);
  const std::size_t vars = 60, rows = 45;
  for (std::size_t j = 0; j < vars; ++j)
    m.add_variable(0.0, rng.uniform(1.0, 10.0), rng.uniform(-1.0, 2.0));
  for (std::size_t i = 0; i < rows; ++i) {
    std::vector<Term> terms;
    for (std::size_t j = 0; j < vars; ++j) {
      const double c = rng.uniform(-1.0, 1.0);
      if (std::abs(c) > 0.3) terms.push_back({j, c});
    }
    if (terms.empty()) continue;
    m.add_constraint(std::move(terms), -kInfinity,
                     rng.uniform(5.0, 50.0));
  }
  const Solution s = solve(m);
  ASSERT_EQ(s.status, SolveStatus::kOptimal);
  EXPECT_LE(m.max_violation(s.x), 1e-6);
  // Random feasible points can't beat the reported optimum.
  std::vector<double> x(vars);
  for (int sample = 0; sample < 200; ++sample) {
    for (std::size_t j = 0; j < vars; ++j)
      x[j] = rng.uniform(m.variable(j).lower, m.variable(j).upper);
    if (m.max_violation(x) > 1e-9) continue;
    EXPECT_LE(m.objective_value(x), s.objective + 1e-6);
  }
}

}  // namespace
}  // namespace scapegoat::lp
