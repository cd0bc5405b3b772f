// CSR SparseMatrix unit suite: construction edge cases (empty matrix,
// all-zero rows, single entry, duplicate-coordinate rejection), round-trips,
// slicing, and SpMV vs the dense product (bitwise — the DESIGN.md §12
// contract).

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "graph/graph.hpp"
#include "linalg/sparse_matrix.hpp"
#include "tomography/routing_matrix.hpp"
#include "util/random.hpp"

namespace scapegoat {
namespace {

bool bitwise_equal(const Vector& a, const Vector& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i]))
      return false;
  }
  return true;
}

TEST(SparseMatrix, EmptyMatrixHasNoEntries) {
  const SparseMatrix s(0, 0);
  EXPECT_EQ(s.rows(), 0u);
  EXPECT_EQ(s.cols(), 0u);
  EXPECT_EQ(s.nnz(), 0u);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.density(), 1.0);  // degenerate shapes count as dense

  const SparseMatrix wide(0, 5);
  EXPECT_TRUE(wide.empty());
  const Vector y = wide * Vector(5, 1.0);
  EXPECT_EQ(y.size(), 0u);
}

TEST(SparseMatrix, AllZeroRowsRoundTrip) {
  // Rows 0 and 2 are structurally empty; the CSR offsets must still cover
  // them and products must return exact zeros there.
  const SparseMatrix s =
      SparseMatrix::from_triplets(3, 4, {{1, 2, 5.0}, {1, 0, -1.0}});
  EXPECT_EQ(s.nnz(), 2u);
  EXPECT_EQ(s.row_nnz(0), 0u);
  EXPECT_EQ(s.row_nnz(1), 2u);
  EXPECT_EQ(s.row_nnz(2), 0u);
  const Matrix d = s.to_dense();
  EXPECT_EQ(d(1, 0), -1.0);
  EXPECT_EQ(d(1, 2), 5.0);
  EXPECT_EQ(d(0, 0), 0.0);
  const Vector y = s * Vector(4, 1.0);
  EXPECT_EQ(y[0], 0.0);
  EXPECT_EQ(y[1], 4.0);
  EXPECT_EQ(y[2], 0.0);
}

TEST(SparseMatrix, SingleEntry) {
  const SparseMatrix s = SparseMatrix::from_triplets(2, 3, {{1, 2, 7.0}});
  EXPECT_EQ(s.nnz(), 1u);
  EXPECT_EQ(s.at(1, 2), 7.0);
  EXPECT_EQ(s.at(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(s.density(), 1.0 / 6.0);
}

TEST(SparseMatrix, AppendRowMatchesFromTripletsBitwise) {
  // Growing [2x3] by one row must leave CSR arrays identical to rebuilding
  // the [3x3] matrix from scratch — including an unsorted, zero-carrying
  // appended row.
  SparseMatrix grown =
      SparseMatrix::from_triplets(2, 3, {{0, 1, 2.5}, {1, 0, -1.0}});
  grown.append_row({2, 0, 1}, {4.0, 0.0, -3.0});  // unsorted + exact zero
  const SparseMatrix rebuilt = SparseMatrix::from_triplets(
      3, 3, {{0, 1, 2.5}, {1, 0, -1.0}, {2, 1, -3.0}, {2, 2, 4.0}});
  ASSERT_EQ(grown.rows(), rebuilt.rows());
  ASSERT_EQ(grown.nnz(), rebuilt.nnz());
  EXPECT_EQ(grown.col_index(), rebuilt.col_index());
  for (std::size_t r = 0; r < grown.rows(); ++r) {
    EXPECT_EQ(grown.row_begin(r), rebuilt.row_begin(r));
    EXPECT_EQ(grown.row_end(r), rebuilt.row_end(r));
  }
  for (std::size_t k = 0; k < grown.nnz(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(grown.values()[k]),
              std::bit_cast<std::uint64_t>(rebuilt.values()[k]));
  }
  const Vector probe{1.0, -2.0, 0.5};
  EXPECT_TRUE(bitwise_equal(grown * probe, rebuilt * probe));
}

TEST(SparseMatrix, AppendRowCanBeStructurallyEmpty) {
  SparseMatrix s = SparseMatrix::from_triplets(1, 2, {{0, 0, 1.0}});
  ASSERT_TRUE(s.try_append_row({0, 1}, {0.0, 0.0}).ok());
  EXPECT_EQ(s.rows(), 2u);
  EXPECT_EQ(s.nnz(), 1u);
  EXPECT_EQ(s.row_nnz(1), 0u);
  const Vector y = s * Vector(2, 3.0);
  EXPECT_EQ(y[1], 0.0);
}

TEST(SparseMatrix, AppendRowRejectionsLeaveMatrixUntouched) {
  SparseMatrix s = SparseMatrix::from_triplets(2, 3, {{0, 0, 1.0}, {1, 2, 2.0}});
  const std::size_t rows_before = s.rows();
  const std::size_t nnz_before = s.nnz();

  const auto dup = s.try_append_row({1, 1}, {1.0, 2.0});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), robust::ErrorCode::kInvalidInput);

  const auto oob = s.try_append_row({3}, {1.0});
  ASSERT_FALSE(oob.ok());
  EXPECT_EQ(oob.code(), robust::ErrorCode::kInvalidInput);

  const auto mismatch = s.try_append_row({0, 1}, {1.0});
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.code(), robust::ErrorCode::kDimensionMismatch);

  EXPECT_EQ(s.rows(), rows_before);
  EXPECT_EQ(s.nnz(), nnz_before);

  SparseMatrix zero_width;
  const auto no_cols = zero_width.try_append_row({}, {});
  ASSERT_FALSE(no_cols.ok());
  EXPECT_EQ(no_cols.code(), robust::ErrorCode::kInvalidInput);
}

TEST(SparseMatrix, DuplicateCoordinatesRejected) {
  const auto dup = SparseMatrix::try_from_triplets(
      2, 2, {{0, 1, 1.0}, {1, 0, 2.0}, {0, 1, 3.0}});
  ASSERT_FALSE(dup.ok());
  EXPECT_EQ(dup.code(), robust::ErrorCode::kInvalidInput);

  const auto oob = SparseMatrix::try_from_triplets(2, 2, {{2, 0, 1.0}});
  ASSERT_FALSE(oob.ok());
  EXPECT_EQ(oob.code(), robust::ErrorCode::kInvalidInput);
}

TEST(SparseMatrix, ExactZeroTripletsAreDropped) {
  const SparseMatrix s =
      SparseMatrix::from_triplets(2, 2, {{0, 0, 0.0}, {1, 1, 2.0}});
  EXPECT_EQ(s.nnz(), 1u);
  // A zero-valued triplet is dropped, so the same coordinate can also carry
  // a real value without tripping duplicate rejection.
  const auto mixed = SparseMatrix::try_from_triplets(
      2, 2, {{0, 0, 0.0}, {0, 0, 3.0}});
  ASSERT_TRUE(mixed.ok());
  EXPECT_EQ(mixed->at(0, 0), 3.0);
}

TEST(SparseMatrix, UnsortedTripletsAreSortedPerRow) {
  const SparseMatrix s = SparseMatrix::from_triplets(
      1, 5, {{0, 4, 4.0}, {0, 0, 1.0}, {0, 2, 2.0}});
  ASSERT_EQ(s.nnz(), 3u);
  EXPECT_EQ(s.col_index()[0], 0u);
  EXPECT_EQ(s.col_index()[1], 2u);
  EXPECT_EQ(s.col_index()[2], 4u);
  EXPECT_EQ(s.values()[1], 2.0);
}

TEST(SparseMatrix, DenseRoundTripIsLossless) {
  Rng rng(17);
  Matrix a(7, 9);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (rng.uniform(0.0, 1.0) < 0.3) a(i, j) = rng.uniform(-4.0, 4.0);
  const SparseMatrix s = SparseMatrix::from_dense(a);
  EXPECT_TRUE(approx_equal(s, a, 0.0));
  const Matrix back = s.to_dense();
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      EXPECT_EQ(back(i, j), a(i, j));
}

TEST(SparseMatrix, SpmvBitwiseEqualsDenseProduct) {
  // The load-bearing contract: CSR row accumulation visits stored entries in
  // column order, so skipping exact zeros cannot change a single bit of the
  // dense row dot product. Checked across random sparsities and magnitudes.
  Rng rng(99);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t rows = 1 + rng.index(12);
    const std::size_t cols = 1 + rng.index(12);
    Matrix a(rows, cols);
    for (std::size_t i = 0; i < rows; ++i)
      for (std::size_t j = 0; j < cols; ++j)
        if (rng.uniform(0.0, 1.0) < 0.4)
          a(i, j) = rng.uniform(-1e6, 1e6) * std::pow(10.0, rng.index(6));
    Vector x(cols);
    for (std::size_t j = 0; j < cols; ++j) x[j] = rng.uniform(-1e3, 1e3);

    const SparseMatrix s = SparseMatrix::from_dense(a);
    EXPECT_TRUE(bitwise_equal(a * x, s * x)) << "trial " << trial;
  }
}

TEST(SparseMatrix, MultiplyTransposeMatchesDense) {
  Rng rng(5);
  Matrix a(6, 4);
  for (std::size_t i = 0; i < a.rows(); ++i)
    for (std::size_t j = 0; j < a.cols(); ++j)
      if (rng.uniform(0.0, 1.0) < 0.5) a(i, j) = rng.uniform(-2.0, 2.0);
  Vector y(6);
  for (std::size_t i = 0; i < 6; ++i) y[i] = rng.uniform(-3.0, 3.0);
  const SparseMatrix s = SparseMatrix::from_dense(a);
  const Vector lhs = s.multiply_transpose(y);
  const Vector rhs = a.transposed() * y;
  ASSERT_EQ(lhs.size(), rhs.size());
  for (std::size_t j = 0; j < lhs.size(); ++j)
    EXPECT_NEAR(lhs[j], rhs[j], 1e-12);
  // transposed() must agree with the dense transpose exactly.
  EXPECT_TRUE(approx_equal(s.transposed(), a.transposed(), 0.0));
}

TEST(SparseMatrix, RowAndColumnSlicing) {
  const SparseMatrix s = SparseMatrix::from_triplets(
      3, 4, {{0, 0, 1.0}, {0, 3, 2.0}, {1, 1, 3.0}, {2, 2, 4.0}});
  const SparseMatrix rows = s.select_rows({2, 0});
  EXPECT_EQ(rows.rows(), 2u);
  EXPECT_EQ(rows.at(0, 2), 4.0);
  EXPECT_EQ(rows.at(1, 0), 1.0);
  EXPECT_EQ(rows.at(1, 3), 2.0);

  const SparseMatrix cols = s.select_cols({3, 1});
  EXPECT_EQ(cols.cols(), 2u);
  EXPECT_EQ(cols.at(0, 0), 2.0);
  EXPECT_EQ(cols.at(1, 1), 3.0);
  EXPECT_EQ(cols.nnz(), 2u);

  const Vector row1 = s.row_dense(1);
  EXPECT_EQ(row1[1], 3.0);
  EXPECT_EQ(row1.size(), 4u);
}

TEST(SparseRoutingMatrix, MatchesDenseConstruction) {
  // Triangle with a pendant node; paths over it exercise multi-link rows.
  Graph g(4);
  g.add_link(0, 1);
  g.add_link(1, 2);
  g.add_link(0, 2);
  g.add_link(2, 3);
  const std::vector<Path> paths = {
      Path{{0, 1, 2}, {0, 1}},
      Path{{0, 2, 3}, {2, 3}},
      Path{{1, 2}, {1}},
  };
  const Matrix dense{{1, 1, 0, 0}, {0, 0, 1, 1}, {0, 1, 0, 0}};
  const SparseMatrix sparse = routing_matrix(g, paths);
  EXPECT_TRUE(approx_equal(sparse, dense, 0.0));
  EXPECT_EQ(sparse.nnz(), 5u);
}

}  // namespace
}  // namespace scapegoat
