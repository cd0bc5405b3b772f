// Property tests for the parallel linalg kernels: the pool-dispatched
// multiply / QR / pseudo-inverse paths must agree with the serial paths —
// bitwise, since chunk boundaries never reorder accumulation — and with a
// naive reference to 1e-12, across random, degenerate, and rank-deficient
// shapes.

#include <gtest/gtest.h>

#include "linalg/least_squares.hpp"
#include "linalg/matrix.hpp"
#include "linalg/qr.hpp"
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

// Textbook ijk multiply — the independent reference implementation.
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

// Restores the global pool to 1 worker when a test exits, so test order
// doesn't leak thread counts between cases.
struct GlobalThreadsGuard {
  explicit GlobalThreadsGuard(std::size_t n) {
    ThreadPool::set_global_threads(n);
  }
  ~GlobalThreadsGuard() { ThreadPool::set_global_threads(1); }
};

TEST(ParallelMultiply, MatchesSerialBitwiseAndNaiveToTolerance) {
  GlobalThreadsGuard guard(8);
  Rng rng(42);
  // Shapes straddling the parallel-dispatch threshold, including tall/skinny
  // and short/fat.
  const std::size_t shapes[][3] = {{64, 64, 64},  {100, 80, 90}, {300, 20, 40},
                                   {20, 300, 15}, {7, 5, 3},     {128, 1, 128},
                                   {1, 256, 1}};
  for (const auto& s : shapes) {
    const Matrix a = random_matrix(s[0], s[1], rng);
    const Matrix b = random_matrix(s[1], s[2], rng);
    const Matrix parallel = a * b;
    const Matrix serial = multiply_serial(a, b);
    EXPECT_TRUE(approx_equal(parallel, serial, 0.0))
        << s[0] << "x" << s[1] << "x" << s[2] << " parallel != serial";
    EXPECT_TRUE(approx_equal(parallel, naive_multiply(a, b), 1e-12))
        << s[0] << "x" << s[1] << "x" << s[2] << " parallel != naive";
  }
}

TEST(ParallelMultiply, DegenerateShapes) {
  GlobalThreadsGuard guard(8);
  Rng rng(7);
  // 0×n, n×0, and 1×1 products stay well-defined on both paths.
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
  // Zero entries exercise the av == 0 skip in the kernel on both paths.
  for (std::size_t r = 0; r < a.rows(); ++r)
    for (std::size_t c = 0; c < a.cols(); ++c)
      if (rng.bernoulli(0.7)) a(r, c) = 0.0;
  const Matrix b = random_matrix(96, 96, rng);
  EXPECT_TRUE(approx_equal(a * b, multiply_serial(a, b), 0.0));
}

// Factor the same matrix under a 1-worker and an 8-worker global pool; the
// parallel trailing updates must not change a single bit.
void expect_qr_thread_invariant(const Matrix& a) {
  ThreadPool::set_global_threads(1);
  const QrDecomposition serial(a, QrDecomposition::Pivoting::kColumn);
  ThreadPool::set_global_threads(8);
  const QrDecomposition parallel(a, QrDecomposition::Pivoting::kColumn);
  EXPECT_TRUE(approx_equal(parallel.r(), serial.r(), 0.0));
  EXPECT_EQ(parallel.rank(), serial.rank());
}

TEST(ParallelQr, FactorizationIsThreadCountInvariant) {
  GlobalThreadsGuard guard(8);
  Rng rng(3);
  expect_qr_thread_invariant(random_matrix(300, 80, rng));  // tall/skinny
  expect_qr_thread_invariant(random_matrix(80, 300, rng));  // short/fat
  expect_qr_thread_invariant(random_matrix(1, 1, rng));
  expect_qr_thread_invariant(Matrix(0, 4));
  expect_qr_thread_invariant(Matrix(4, 0));
}

TEST(ParallelQr, RankDeficientMatrixAgreesAcrossThreadCounts) {
  GlobalThreadsGuard guard(8);
  Rng rng(13);
  // 200×60 with rank ≤ 20: columns are combinations of 20 generators.
  const Matrix gen = random_matrix(200, 20, rng);
  const Matrix mix = random_matrix(20, 60, rng);
  ThreadPool::set_global_threads(1);
  const Matrix serial_product = multiply_serial(gen, mix);
  const std::size_t serial_rank = matrix_rank(serial_product);
  ThreadPool::set_global_threads(8);
  const std::size_t parallel_rank = matrix_rank(gen * mix);
  EXPECT_EQ(parallel_rank, serial_rank);
  EXPECT_LE(parallel_rank, 20u);
}

TEST(ParallelQr, SolveAgreesWithSerialToTolerance) {
  GlobalThreadsGuard guard(8);
  Rng rng(21);
  const Matrix a = random_matrix(250, 60, rng);
  Vector b(250);
  for (auto& v : b) v = rng.uniform(-1.0, 1.0);

  ThreadPool::set_global_threads(1);
  const auto serial = least_squares(a, b);
  ThreadPool::set_global_threads(8);
  const auto parallel = least_squares(a, b);
  ASSERT_TRUE(serial.has_value());
  ASSERT_TRUE(parallel.has_value());
  EXPECT_TRUE(approx_equal(*parallel, *serial, 0.0));
  // And the solution actually solves the normal equations to tolerance.
  const Vector r = residual(a, *parallel, b);
  const Vector atr = a.transposed() * r;
  EXPECT_LT(atr.norm_inf(), 1e-9);
}

TEST(ParallelPseudoInverse, MatchesSerialBitwise) {
  GlobalThreadsGuard guard(8);
  Rng rng(31);
  const Matrix a = random_matrix(180, 50, rng);
  ThreadPool::set_global_threads(1);
  const Matrix serial = pseudo_inverse(a);
  ThreadPool::set_global_threads(8);
  const Matrix parallel = pseudo_inverse(a);
  EXPECT_TRUE(approx_equal(parallel, serial, 0.0));
  // G a ≈ I to tolerance (left inverse on full column rank).
  const Matrix ga = parallel * a;
  EXPECT_TRUE(approx_equal(ga, Matrix::identity(50), 1e-9));
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

}  // namespace
}  // namespace scapegoat
