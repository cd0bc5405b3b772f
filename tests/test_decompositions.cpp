// Unit tests for LU, Cholesky and QR decompositions.

#include <gtest/gtest.h>

#include "linalg/cholesky.hpp"
#include "linalg/lu.hpp"
#include "linalg/qr.hpp"
#include "util/random.hpp"

namespace scapegoat {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-5.0, 5.0);
  return m;
}

TEST(Lu, SolvesKnownSystem) {
  Matrix a{{2.0, 1.0}, {1.0, 3.0}};
  Vector b{5.0, 10.0};
  LuDecomposition lu(a);
  ASSERT_TRUE(lu.ok());
  Vector x = lu.solve(b);
  EXPECT_TRUE(approx_equal(x, Vector{1.0, 3.0}, 1e-10));
}

TEST(Lu, DetectsSingularMatrix) {
  Matrix a{{1.0, 2.0}, {2.0, 4.0}};
  LuDecomposition lu(a);
  EXPECT_FALSE(lu.ok());
  EXPECT_DOUBLE_EQ(lu.determinant(), 0.0);
  EXPECT_FALSE(solve_square(a, Vector{1.0, 1.0}).has_value());
}

TEST(Lu, Determinant) {
  Matrix a{{3.0, 0.0, 0.0}, {0.0, 2.0, 0.0}, {0.0, 0.0, -1.0}};
  EXPECT_NEAR(LuDecomposition(a).determinant(), -6.0, 1e-12);
  // Row swaps flip sign internally but the determinant stays correct.
  Matrix b{{0.0, 1.0}, {1.0, 0.0}};
  EXPECT_NEAR(LuDecomposition(b).determinant(), -1.0, 1e-12);
}

TEST(Lu, InverseRoundTrip) {
  Rng rng(11);
  const Matrix a = random_matrix(6, 6, rng);
  LuDecomposition lu(a);
  ASSERT_TRUE(lu.ok());
  EXPECT_TRUE(approx_equal(a * lu.inverse(), Matrix::identity(6), 1e-8));
}

TEST(Lu, RandomSystemsRoundTrip) {
  Rng rng(42);
  for (int iter = 0; iter < 20; ++iter) {
    const std::size_t n = 2 + iter % 7;
    Matrix a = random_matrix(n, n, rng);
    Vector x_true(n);
    for (std::size_t i = 0; i < n; ++i) x_true[i] = rng.uniform(-3.0, 3.0);
    Vector b = a * x_true;
    LuDecomposition lu(a);
    if (!lu.ok()) continue;  // singular draw, astronomically unlikely
    EXPECT_TRUE(approx_equal(lu.solve(b), x_true, 1e-7));
  }
}

TEST(Cholesky, SolvesSpdSystem) {
  Matrix a{{4.0, 2.0}, {2.0, 3.0}};
  CholeskyDecomposition chol(a);
  ASSERT_TRUE(chol.ok());
  Vector b{8.0, 7.0};
  Vector x = chol.solve(b);
  EXPECT_TRUE(approx_equal(a * x, b, 1e-10));
  // L is lower-triangular with L Lᵀ = a.
  const Matrix l = chol.l();
  EXPECT_DOUBLE_EQ(l(0, 1), 0.0);
  EXPECT_TRUE(approx_equal(l * l.transposed(), a, 1e-10));
}

TEST(Cholesky, RejectsIndefiniteMatrix) {
  Matrix a{{1.0, 2.0}, {2.0, 1.0}};  // eigenvalues 3 and -1
  EXPECT_FALSE(CholeskyDecomposition(a).ok());
}

TEST(Cholesky, RejectsSemidefiniteMatrix) {
  Matrix a{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_FALSE(CholeskyDecomposition(a).ok());
}

TEST(Cholesky, NormalEquationsMatchTruth) {
  Rng rng(7);
  const Matrix a = random_matrix(10, 4, rng);
  Vector x_true{1.0, -2.0, 0.5, 3.0};
  const Vector b = a * x_true;
  auto x = solve_normal_equations(a, b);
  ASSERT_TRUE(x.has_value());
  EXPECT_TRUE(approx_equal(*x, x_true, 1e-8));
}

TEST(Qr, ReconstructsRankAndSolves) {
  Rng rng(3);
  const Matrix a = random_matrix(8, 5, rng);
  QrDecomposition qr(a, QrDecomposition::Pivoting::kColumn);
  EXPECT_EQ(qr.rank(), 5u);
  EXPECT_TRUE(qr.full_column_rank());

  Vector x_true{2.0, -1.0, 0.0, 4.0, 1.5};
  Vector b = a * x_true;
  EXPECT_TRUE(approx_equal(qr.solve(b), x_true, 1e-8));
}

TEST(Qr, DetectsRankDeficiency) {
  // Third column = first + second.
  Matrix a(6, 3);
  Rng rng(5);
  for (std::size_t r = 0; r < 6; ++r) {
    a(r, 0) = rng.uniform(-1.0, 1.0);
    a(r, 1) = rng.uniform(-1.0, 1.0);
    a(r, 2) = a(r, 0) + a(r, 1);
  }
  EXPECT_EQ(matrix_rank(a), 2u);
  QrDecomposition qr(a, QrDecomposition::Pivoting::kColumn);
  EXPECT_FALSE(qr.full_column_rank());
}

TEST(Qr, RankOfZeroAndIdentity) {
  EXPECT_EQ(matrix_rank(Matrix(4, 4, 0.0)), 0u);
  EXPECT_EQ(matrix_rank(Matrix::identity(5)), 5u);
  EXPECT_EQ(matrix_rank(Matrix(0, 0)), 0u);
  EXPECT_EQ(matrix_rank(Matrix(0, 4)), 0u);
  EXPECT_EQ(matrix_rank(Matrix(4, 0)), 0u);
  EXPECT_EQ(matrix_rank(Matrix{{3.0}}), 1u);
}

TEST(Qr, RankOfWideMatrix) {
  Matrix a{{1.0, 0.0, 1.0, 2.0}, {0.0, 1.0, 1.0, 3.0}};
  EXPECT_EQ(matrix_rank(a), 2u);
}

TEST(Qr, LeastSquaresMinimizesResidual) {
  // Overdetermined inconsistent system: solution must satisfy the normal
  // equations Aᵀ(b − Ax) = 0.
  Matrix a{{1.0, 0.0}, {0.0, 1.0}, {1.0, 1.0}};
  Vector b{1.0, 1.0, 0.0};
  QrDecomposition qr(a);
  Vector x = qr.solve(b);
  Vector resid = b - a * x;
  Vector grad = a.transposed() * resid;
  EXPECT_NEAR(grad.norm_inf(), 0.0, 1e-10);
}

TEST(Qr, QTimesInvertsQtTimesAndSpansTheLeftNullSpace) {
  Rng rng(17);
  const Matrix a = random_matrix(9, 4, rng);
  QrDecomposition qr(a, QrDecomposition::Pivoting::kColumn);
  // Q is orthogonal: Q·(Qᵀb) = b.
  Vector b(9);
  for (double& v : b) v = rng.uniform(-3.0, 3.0);
  EXPECT_TRUE(approx_equal(qr.q_times(qr.qt_times(b)), b, 1e-12));
  // Columns 4..8 of Q are orthonormal and orthogonal to range(A).
  Matrix nt(5, 9);
  for (std::size_t k = 0; k < 5; ++k) {
    Vector e(9);
    e[4 + k] = 1.0;
    nt.set_row(k, qr.q_times(e));
  }
  EXPECT_TRUE(approx_equal(nt * nt.transposed(), Matrix::identity(5), 1e-12));
  EXPECT_TRUE(approx_equal(nt * a, Matrix(5, 4, 0.0), 1e-12));
}

TEST(PseudoInverse, LeftInverseProperty) {
  Rng rng(9);
  const Matrix a = random_matrix(12, 6, rng);
  const Matrix pinv = pseudo_inverse(a);
  EXPECT_EQ(pinv.rows(), 6u);
  EXPECT_EQ(pinv.cols(), 12u);
  EXPECT_TRUE(approx_equal(pinv * a, Matrix::identity(6), 1e-8));
}

TEST(PseudoInverse, ProjectionIsSymmetricIdempotent) {
  Rng rng(13);
  const Matrix a = random_matrix(9, 4, rng);
  const Matrix p = a * pseudo_inverse(a);  // orthogonal projector onto col(a)
  EXPECT_TRUE(approx_equal(p, p.transposed(), 1e-8));
  EXPECT_TRUE(approx_equal(p * p, p, 1e-8));
}

}  // namespace
}  // namespace scapegoat
