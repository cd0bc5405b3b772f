// Differential property suite for linalg: QR least-squares vs the textbook
// normal-equations reference, pseudo-inverse vs the Moore–Penrose axioms,
// and rank detection vs constructed rank. Oracle self-checks keep the
// references honest on hand-computable inputs.

#include <gtest/gtest.h>

#include "prop_gtest.hpp"
#include "linalg/matrix.hpp"
#include "testkit/oracles.hpp"

namespace scapegoat {
namespace {

TEST(PropLinalg, QrMatchesNormalEquations) {
  SCAPEGOAT_RUN_PROPERTY("linalg_qr_matches_normal_equations");
}

TEST(PropLinalg, PinvSatisfiesMoorePenrose) {
  SCAPEGOAT_RUN_PROPERTY("linalg_pinv_satisfies_moore_penrose");
}

TEST(PropLinalg, RankDetectsDeficiency) {
  SCAPEGOAT_RUN_PROPERTY("linalg_rank_detects_deficiency");
}

TEST(PropLinalg, SparseMatchesDense) {
  SCAPEGOAT_RUN_PROPERTY("linalg_sparse_matches_dense");
}

TEST(PropLinalg, SparseRowAppendMatchesRebuild) {
  SCAPEGOAT_RUN_PROPERTY("linalg_sparse_row_append_matches_rebuild");
}

// ---- oracle self-checks ---------------------------------------------------

TEST(LinalgOracle, NormalEquationsSolveExactSquareSystem) {
  // [2 0; 0 4] x = [2; 8]  →  x = (1, 2).
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  Vector b{2.0, 8.0};
  const std::vector<double> x = testkit::ref_normal_equations(a, b);
  ASSERT_EQ(x.size(), 2u);
  EXPECT_NEAR(x[0], 1.0, 1e-12);
  EXPECT_NEAR(x[1], 2.0, 1e-12);
}

TEST(LinalgOracle, NormalEquationsRefuseRankDeficiency) {
  // Second column is a multiple of the first: AᵀA singular.
  Matrix a(3, 2);
  for (std::size_t i = 0; i < 3; ++i) {
    a(i, 0) = 1.0;
    a(i, 1) = 2.0;
  }
  Vector b{1.0, 1.0, 1.0};
  EXPECT_TRUE(testkit::ref_normal_equations(a, b).empty());
}

TEST(LinalgOracle, MoorePenroseAcceptsTrueInverse) {
  // For invertible A the pseudo-inverse is the inverse: A = diag(2, 4),
  // G = diag(0.5, 0.25) satisfies all four axioms.
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  Matrix g(2, 2);
  g(0, 0) = 0.5;
  g(1, 1) = 0.25;
  EXPECT_TRUE(testkit::check_moore_penrose(a, g));
}

TEST(LinalgOracle, MoorePenroseRejectsWrongCandidate) {
  Matrix a(2, 2);
  a(0, 0) = 2.0;
  a(1, 1) = 4.0;
  Matrix g(2, 2);
  g(0, 0) = 1.0;  // not the inverse: AGA = diag(4, 4) != A
  g(1, 1) = 0.25;
  EXPECT_FALSE(testkit::check_moore_penrose(a, g));
}

}  // namespace
}  // namespace scapegoat
