// Unit tests for the dense Matrix/Vector substrate.

#include "linalg/matrix.hpp"

#include <gtest/gtest.h>

#include "util/random.hpp"
#include "util/thread_pool.hpp"

namespace scapegoat {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r)
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.uniform(-5.0, 5.0);
  return m;
}

// Textbook ijk multiply — the independent reference for operator*.
Matrix naive_multiply(const Matrix& a, const Matrix& b) {
  Matrix out(a.rows(), b.cols());
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < b.cols(); ++c) {
      double acc = 0.0;
      for (std::size_t k = 0; k < a.cols(); ++k) acc += a(r, k) * b(k, c);
      out(r, c) = acc;
    }
  return out;
}

TEST(Vector, ConstructionAndIndexing) {
  Vector v(3, 1.5);
  EXPECT_EQ(v.size(), 3u);
  EXPECT_DOUBLE_EQ(v[0], 1.5);
  v[2] = -2.0;
  EXPECT_DOUBLE_EQ(v[2], -2.0);

  Vector init{1.0, 2.0, 3.0};
  EXPECT_EQ(init.size(), 3u);
  EXPECT_DOUBLE_EQ(init[1], 2.0);
}

TEST(Vector, Arithmetic) {
  Vector a{1.0, 2.0, 3.0};
  Vector b{4.0, 5.0, 6.0};
  Vector sum = a + b;
  EXPECT_TRUE(approx_equal(sum, Vector{5.0, 7.0, 9.0}));
  Vector diff = b - a;
  EXPECT_TRUE(approx_equal(diff, Vector{3.0, 3.0, 3.0}));
  Vector scaled = 2.0 * a;
  EXPECT_TRUE(approx_equal(scaled, Vector{2.0, 4.0, 6.0}));
}

TEST(Vector, DotAndNorms) {
  Vector a{3.0, -4.0};
  EXPECT_DOUBLE_EQ(a.dot(a), 25.0);
  EXPECT_DOUBLE_EQ(a.norm2(), 5.0);
  EXPECT_DOUBLE_EQ(a.norm1(), 7.0);
  EXPECT_DOUBLE_EQ(a.norm_inf(), 4.0);
}

TEST(Vector, ComponentwiseGeq) {
  Vector a{1.0, 2.0, 3.0};
  Vector zero(3, 0.0);
  EXPECT_TRUE(a.componentwise_geq(zero));
  EXPECT_FALSE(zero.componentwise_geq(a));
  Vector almost{0.9999999, 2.0, 3.0};
  EXPECT_FALSE(almost.componentwise_geq(a));
  EXPECT_TRUE(almost.componentwise_geq(a, 1e-3));
}

TEST(Matrix, ConstructionAndIdentity) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_DOUBLE_EQ(m(1, 0), 3.0);

  Matrix id = Matrix::identity(3);
  for (std::size_t r = 0; r < 3; ++r)
    for (std::size_t c = 0; c < 3; ++c)
      EXPECT_DOUBLE_EQ(id(r, c), r == c ? 1.0 : 0.0);
}

TEST(Matrix, Transpose) {
  Matrix m{{1.0, 2.0, 3.0}, {4.0, 5.0, 6.0}};
  Matrix t = m.transposed();
  EXPECT_EQ(t.rows(), 3u);
  EXPECT_EQ(t.cols(), 2u);
  EXPECT_DOUBLE_EQ(t(2, 1), 6.0);
  EXPECT_TRUE(approx_equal(t.transposed(), m));
}

TEST(Matrix, RowColAccess) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}, {5.0, 6.0}};
  EXPECT_TRUE(approx_equal(m.row(1), Vector{3.0, 4.0}));
  EXPECT_TRUE(approx_equal(m.col(0), Vector{1.0, 3.0, 5.0}));
  m.set_row(0, Vector{9.0, 8.0});
  EXPECT_DOUBLE_EQ(m(0, 1), 8.0);
}

TEST(Matrix, MatrixMatrixProduct) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{5.0, 6.0}, {7.0, 8.0}};
  Matrix ab = a * b;
  EXPECT_TRUE(approx_equal(ab, Matrix{{19.0, 22.0}, {43.0, 50.0}}));

  // Identity is neutral.
  EXPECT_TRUE(approx_equal(Matrix::identity(2) * a, a));
  EXPECT_TRUE(approx_equal(a * Matrix::identity(2), a));
}

TEST(Matrix, MatrixVectorProduct) {
  Matrix a{{1.0, 0.0, 2.0}, {0.0, 3.0, 0.0}};
  Vector x{1.0, 2.0, 3.0};
  EXPECT_TRUE(approx_equal(a * x, Vector{7.0, 6.0}));
}

TEST(Matrix, NonSquareProductShapes) {
  Matrix a(2, 3, 1.0);
  Matrix b(3, 4, 1.0);
  Matrix ab = a * b;
  EXPECT_EQ(ab.rows(), 2u);
  EXPECT_EQ(ab.cols(), 4u);
  EXPECT_DOUBLE_EQ(ab(0, 0), 3.0);
}

// The product kernel runs on the calling thread whatever the global pool's
// size; the tests below check it against the naive reference and check that
// resizing the pool moves no bit of the result.

// Restores the global pool to 1 worker when a test exits, so test order
// doesn't leak thread counts between cases.
struct GlobalThreadsGuard {
  explicit GlobalThreadsGuard(std::size_t n) {
    ThreadPool::set_global_threads(n);
  }
  ~GlobalThreadsGuard() { ThreadPool::set_global_threads(1); }
};

// The product of a and b under a 1-worker global pool.
Matrix single_worker_product(const Matrix& a, const Matrix& b) {
  const std::size_t before = ThreadPool::global_threads();
  ThreadPool::set_global_threads(1);
  Matrix out = a * b;
  ThreadPool::set_global_threads(before);
  return out;
}

TEST(ParallelMultiply, MatchesSerialBitwiseAndNaiveToTolerance) {
  GlobalThreadsGuard guard(8);
  Rng rng(42);
  // Tall/skinny, short/fat and rank-1 shapes; inner dimensions past 64
  // cross the kernel's k-blocks.
  const std::size_t shapes[][3] = {{64, 64, 64},  {100, 80, 90}, {300, 20, 40},
                                   {20, 300, 15}, {7, 5, 3},     {128, 1, 128},
                                   {1, 256, 1}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[1], rng);
    const Matrix b = random_matrix(s[1], s[2], rng);
    const Matrix ab = a * b;
    EXPECT_TRUE(approx_equal(ab, single_worker_product(a, b), 0.0))
        << s[0] << "x" << s[1] << "x" << s[2] << " 8 workers != 1 worker";
    EXPECT_TRUE(approx_equal(ab, naive_multiply(a, b), 1e-12))
        << s[0] << "x" << s[1] << "x" << s[2] << " kernel != naive";
  }
}

TEST(ParallelMultiply, DegenerateShapes) {
  GlobalThreadsGuard guard(8);
  Rng rng(7);
  // 0×n, n×0, and 1×1 products stay well-defined.
  const Matrix empty_rows(0, 5);
  const Matrix b5 = random_matrix(5, 4, rng);
  EXPECT_EQ((empty_rows * b5).rows(), 0u);
  EXPECT_EQ((empty_rows * b5).cols(), 4u);

  const Matrix a5 = random_matrix(4, 5, rng);
  const Matrix empty_cols(5, 0);
  EXPECT_EQ((a5 * empty_cols).rows(), 4u);
  EXPECT_EQ((a5 * empty_cols).cols(), 0u);

  const Matrix one{{3.0}};
  EXPECT_DOUBLE_EQ((one * one)(0, 0), 9.0);
}

TEST(ParallelMultiply, SparseRowsSkipIdenticallyOnBothPaths) {
  GlobalThreadsGuard guard(8);
  Rng rng(11);
  Matrix a = random_matrix(96, 96, rng);
  // About 70 % zeros in a, which the kernel skips.
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      if (rng.bernoulli(0.7)) a(r, c) = 0.0;
  const Matrix b = random_matrix(96, 96, rng);
  const Matrix ab = a * b;
  EXPECT_TRUE(approx_equal(ab, single_worker_product(a, b), 0.0));
  EXPECT_TRUE(approx_equal(ab, naive_multiply(a, b), 1e-12));
}

TEST(ParallelLinalg, RandomizedSweepAgainstNaiveReference) {
  GlobalThreadsGuard guard(8);
  Rng rng(77);
  for (int iter = 0; iter < 12; ++iter) {
    const std::size_t m = 1 + rng.index(120);
    const std::size_t k = 1 + rng.index(120);
    const std::size_t n = 1 + rng.index(120);
    const Matrix a = random_matrix(m, k, rng);
    const Matrix b = random_matrix(k, n, rng);
    EXPECT_TRUE(approx_equal(a * b, naive_multiply(a, b), 1e-12))
        << m << "x" << k << "x" << n;
  }
}

TEST(Matrix, Norms) {
  Matrix m{{3.0, 0.0}, {0.0, -4.0}};
  EXPECT_DOUBLE_EQ(m.norm_fro(), 5.0);
  EXPECT_DOUBLE_EQ(m.max_abs(), 4.0);
}

TEST(Matrix, AdditionSubtractionScaling) {
  Matrix a{{1.0, 2.0}, {3.0, 4.0}};
  Matrix b{{1.0, 1.0}, {1.0, 1.0}};
  EXPECT_TRUE(approx_equal(a + b, Matrix{{2.0, 3.0}, {4.0, 5.0}}));
  EXPECT_TRUE(approx_equal(a - b, Matrix{{0.0, 1.0}, {2.0, 3.0}}));
  EXPECT_TRUE(approx_equal(0.5 * a, Matrix{{0.5, 1.0}, {1.5, 2.0}}));
}

TEST(Matrix, ApproxEqualRespectsShapeAndTolerance) {
  Matrix a(2, 2, 1.0);
  Matrix b(2, 3, 1.0);
  EXPECT_FALSE(approx_equal(a, b));
  Matrix c(2, 2, 1.0 + 1e-12);
  EXPECT_TRUE(approx_equal(a, c));
  Matrix d(2, 2, 1.1);
  EXPECT_FALSE(approx_equal(a, d));
}

}  // namespace
}  // namespace scapegoat
