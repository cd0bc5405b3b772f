// Differential property suite: two-phase simplex vs the brute-force
// vertex-enumeration reference LP (testkit/oracles.hpp), ranged rows vs the
// same rows split into one-sided pairs, plus direct sanity checks that the
// oracle itself solves known models correctly — a wrong oracle would make
// the differential test vacuous.

#include <gtest/gtest.h>

#include "prop_gtest.hpp"
#include "lp/model.hpp"
#include "lp/simplex.hpp"
#include "testkit/oracles.hpp"

namespace scapegoat {
namespace {

using testkit::ReferenceLpResult;
using testkit::solve_lp_by_vertex_enumeration;

TEST(PropLp, SimplexMatchesVertexEnumeration) {
  SCAPEGOAT_RUN_PROPERTY("lp_simplex_matches_reference");
}

TEST(PropLp, RangedRowsMatchSplitRows) {
  SCAPEGOAT_RUN_PROPERTY("lp_ranged_rows_match_split_rows");
}

// ---- oracle self-checks on hand-computable models -------------------------

TEST(LpOracle, SolvesKnownMaximization) {
  // max x + y  s.t.  x + y <= 1.5,  x,y in [0, 1]  →  optimum 1.5.
  lp::Model m(lp::Sense::kMaximize);
  const std::size_t x = m.add_variable(0.0, 1.0, 1.0, "x");
  const std::size_t y = m.add_variable(0.0, 1.0, 1.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, -lp::kInfinity, 1.5);

  const ReferenceLpResult ref = solve_lp_by_vertex_enumeration(m);
  ASSERT_TRUE(ref.feasible);
  EXPECT_NEAR(ref.objective, 1.5, 1e-9);
  EXPECT_GT(ref.vertices_checked, 0u);

  const lp::Solution sol = lp::solve(m);
  ASSERT_EQ(sol.status, lp::SolveStatus::kOptimal);
  EXPECT_NEAR(sol.objective, ref.objective, 1e-7);
}

TEST(LpOracle, DetectsInfeasibleBox) {
  // x in [0, 1] but x >= 2 is required: infeasible for both solvers.
  lp::Model m(lp::Sense::kMaximize);
  const std::size_t x = m.add_variable(0.0, 1.0, 1.0, "x");
  m.add_constraint({{x, 1.0}}, 2.0, lp::kInfinity);

  const ReferenceLpResult ref = solve_lp_by_vertex_enumeration(m);
  EXPECT_FALSE(ref.feasible);
  const lp::Solution sol = lp::solve(m);
  EXPECT_EQ(sol.status, lp::SolveStatus::kInfeasible);
}

TEST(LpOracle, HandlesEqualityConstraints) {
  // min x + 2y  s.t.  x + y = 2,  x,y in [0, 3]  →  x=2, y=0, objective 2.
  lp::Model m(lp::Sense::kMinimize);
  const std::size_t x = m.add_variable(0.0, 3.0, 1.0, "x");
  const std::size_t y = m.add_variable(0.0, 3.0, 2.0, "y");
  m.add_constraint({{x, 1.0}, {y, 1.0}}, 2.0, 2.0);

  const ReferenceLpResult ref = solve_lp_by_vertex_enumeration(m);
  ASSERT_TRUE(ref.feasible);
  EXPECT_NEAR(ref.objective, 2.0, 1e-9);
  ASSERT_EQ(ref.x.size(), 2u);
  EXPECT_LE(m.max_violation(ref.x), 1e-7);
}

TEST(LpOracle, UnconstrainedBoxOptimumIsCorner) {
  // No rows at all: the optimum of max 3x - y over x in [-1, 2], y in [0, 4]
  // is the corner (2, 0) with objective 6.
  lp::Model m(lp::Sense::kMaximize);
  m.add_variable(-1.0, 2.0, 3.0, "x");
  m.add_variable(0.0, 4.0, -1.0, "y");

  const ReferenceLpResult ref = solve_lp_by_vertex_enumeration(m);
  ASSERT_TRUE(ref.feasible);
  EXPECT_NEAR(ref.objective, 6.0, 1e-9);
  ASSERT_EQ(ref.x.size(), 2u);
  EXPECT_NEAR(ref.x[0], 2.0, 1e-9);
  EXPECT_NEAR(ref.x[1], 0.0, 1e-9);
}

}  // namespace
}  // namespace scapegoat
