// Compressed-sparse-row matrix — the storage format for routing matrices.
//
// The paper's R is {0,1} with ~path-length nonzeros per row, so on the
// 10k–100k-link topologies the ROADMAP targets a dense |P|×|L| array is
// almost entirely zeros. This CSR type carries the sparse half of the
// numerics subsystem: construction (triplets, dense conversion, routing
// matrices via tomography/routing_matrix.hpp), SpMV / SpMᵀV products, and
// row/column slicing for the degraded-measurement paths.
//
// Bitwise contract (DESIGN.md §12): `multiply` accumulates each output row
// in column order over the stored nonzeros, which is exactly the dense
// row-dot-product with the structural-zero terms skipped. Adding a ±0.0
// product never changes a running sum that starts at +0.0, so for any
// matrix whose zeros are exact — every routing matrix — SpMV equals the
// dense `Matrix * Vector` BIT FOR BIT. The golden-figure suite pins this
// through whole experiment pipelines.

#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"
#include "robust/expected.hpp"

namespace scapegoat {

// One (row, col, value) coordinate for triplet construction.
struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class SparseMatrix {
 public:
  SparseMatrix() = default;

  // Empty rows×cols matrix (no stored entries).
  SparseMatrix(std::size_t rows, std::size_t cols);

  // Triplet construction. Entries may arrive in any order; exact zeros are
  // dropped. Duplicate (row, col) coordinates are REJECTED, not summed —
  // a routing matrix has exactly one incidence per (path, link), and a
  // duplicate means the caller built the path set wrong. `try_` names the
  // failure (kInvalidInput for out-of-range or duplicate coordinates);
  // `from_triplets` asserts on the same conditions.
  static SparseMatrix from_triplets(std::size_t rows, std::size_t cols,
                                    const std::vector<Triplet>& entries);
  static robust::Expected<SparseMatrix> try_from_triplets(
      std::size_t rows, std::size_t cols, const std::vector<Triplet>& entries);

  // Dense conversions. `from_dense` stores entries with |a(i,j)| > tol
  // (tol = 0.0 keeps every non-zero bit pattern, the lossless default).
  static SparseMatrix from_dense(const Matrix& a, double tol = 0.0);
  Matrix to_dense() const;

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  std::size_t nnz() const { return values_.size(); }
  bool empty() const { return rows_ == 0 || cols_ == 0; }
  // nnz / (rows·cols); 1.0 for degenerate shapes so auto-selection treats
  // them as dense.
  double density() const;

  // Entry lookup (linear scan of the row — diagnostics, not hot paths).
  double at(std::size_t row, std::size_t col) const;

  // Row r's entries live at indices [row_begin(r), row_end(r)) of
  // col_index()/values(), sorted by column.
  std::size_t row_begin(std::size_t r) const { return row_ptr_[r]; }
  std::size_t row_end(std::size_t r) const { return row_ptr_[r + 1]; }
  std::size_t row_nnz(std::size_t r) const {
    return row_ptr_[r + 1] - row_ptr_[r];
  }
  const std::vector<std::size_t>& col_index() const { return col_index_; }
  const std::vector<double>& values() const { return values_; }

  // y = A x (per-row column-order accumulation — bitwise equal to the dense
  // product, see header comment).
  Vector multiply(const Vector& x) const;
  // z = Aᵀ y without materializing the transpose (row-major scatter; equals
  // the dense transposed product to roundoff, not bitwise — accumulation
  // order differs).
  Vector multiply_transpose(const Vector& y) const;

  SparseMatrix transposed() const;

  // Row/column slicing: the sub-matrix keeping exactly `rows`/`cols` in the
  // given order (indices may repeat; each must be in range). Row slicing is
  // the degraded-measurement shape (drop unmeasured paths); column slicing
  // restricts to a link subset.
  SparseMatrix select_rows(const std::vector<std::size_t>& rows) const;
  SparseMatrix select_cols(const std::vector<std::size_t>& cols) const;

  // Incremental row append: grows the matrix to rows()+1 without rebuilding
  // the CSR arrays from triplets — the streaming-service shape, where a
  // shard absorbs a new measurement path as one O(k log k) append instead of
  // an O(nnz) from-scratch reconstruction. Entries may arrive in any column
  // order; exact zeros are dropped and duplicate columns are rejected, so an
  // appended matrix is BITWISE identical (row_ptr/col_index/values) to the
  // same matrix rebuilt via from_triplets — pinned by the
  // `linalg_sparse_row_append_matches_rebuild` registry property. `try_`
  // names the failure (kInvalidInput, matrix untouched); `append_row`
  // asserts on the same conditions. cols() must already be set (appending
  // to a default-constructed 0-column matrix is kInvalidInput).
  robust::Status try_append_row(const std::vector<std::size_t>& cols,
                                const std::vector<double>& values);
  void append_row(const std::vector<std::size_t>& cols,
                  const std::vector<double>& values);

  // Dense copy of one row (length cols()).
  Vector row_dense(std::size_t r) const;

  std::string to_string() const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<std::size_t> row_ptr_;    // rows_ + 1 offsets
  std::vector<std::size_t> col_index_;  // nnz, sorted within each row
  std::vector<double> values_;          // nnz
};

// y = A x, mirroring the dense operator.
Vector operator*(const SparseMatrix& a, const Vector& x);

bool approx_equal(const SparseMatrix& a, const Matrix& b, double tol = 1e-9);

}  // namespace scapegoat
