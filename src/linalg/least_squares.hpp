// Least-squares solving and incremental rank tracking.
//
// `least_squares` solves a dense system by column-pivoted QR; the literal
// Eq. 2 normal-equations solve is `solve_normal_equations` (cholesky.hpp).
// The tomography estimator does not go through it (it keeps its own QR of
// R); tests use it as the reference kernel. `RidgeSolver` is the one Tikhonov
// kernel: the regularized defender of bench_ablation_regularization and
// the degraded-path fallback (`ridge_least_squares`) both solve through it.
// `RankTracker` supports the greedy measurement-path selector: paths are
// proposed one at a time and accepted only if their {0,1} incidence row
// increases the rank of the routing matrix.

#pragma once

#include <optional>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "robust/expected.hpp"

namespace scapegoat {

// Solves min ‖a x − b‖₂. Returns nullopt if `a` lacks full column rank
// (the system is not identifiable).
std::optional<Vector> least_squares(const Matrix& a, const Vector& b);

// Checked variant: names the failure instead of nullopt/assert —
//   kDimensionMismatch  |b| ≠ rows(a),
//   kEmptyInput         a has no rows or no columns,
//   kRankDeficient      under-determined or numerically rank deficient.
robust::Expected<Vector> try_least_squares(const Matrix& a,
                                           const Vector& b);

// Tikhonov-regularized least squares with the factor kept:
//     x = argmin ‖a x − b‖₂² + λ‖x − prior‖₂²
//       = (aᵀa + λI)⁻¹ (aᵀb + λ · prior).
// aᵀa + λI is Cholesky-factored once, so each further b costs one product
// and two triangular solves. λ > 0 makes it SPD for any shape of `a`;
// λ = 0 needs full column rank (the plain Eq. 2 solve). An empty prior
// shrinks toward zero.
//
// As a defense, shrinking toward a prior of historical link baselines
// blunts scapegoating: the attacker must inject more to drag a victim's
// estimate across b_u, at the price of bias on honest estimates
// (quantified by bench_ablation_regularization).
class RidgeSolver {
 public:
  // `prior` is empty or has one entry per column of `a`; lambda ≥ 0.
  RidgeSolver(const Matrix& a, double lambda, Vector prior = {});

  // False when aᵀa + λI does not factor (λ = 0 and `a` rank deficient).
  bool ok() const { return chol_.ok(); }

  // Requires ok() and |b| = rows(a).
  Vector solve(const Vector& b) const;

 private:
  Matrix at_;  // aᵀ
  double lambda_;
  Vector prior_;
  CholeskyDecomposition chol_;  // of aᵀa + λI
};

// Checked one-shot RidgeSolver solve, for λ > 0 (the degraded-path
// fallback); null prior means shrink toward zero. Errors: kInvalidInput for
// λ ≤ 0, kDimensionMismatch, kIllConditioned if the factorization fails.
robust::Expected<Vector> ridge_least_squares(const Matrix& a, const Vector& b,
                                             double lambda,
                                             const Vector* prior = nullptr);

// Residual b − a x.
Vector residual(const Matrix& a, const Vector& x, const Vector& b);

// Incrementally tracks the rank of a growing set of row vectors using
// modified Gram-Schmidt. Rows that are (numerically) in the span of the
// accepted ones are rejected.
class RankTracker {
 public:
  explicit RankTracker(std::size_t dimension, double tol = 1e-8);

  std::size_t dimension() const { return dim_; }
  std::size_t rank() const { return basis_.size(); }
  bool full() const { return rank() == dim_; }

  // True iff `row` is independent from the accepted rows.
  bool is_independent(const Vector& row) const;

  // Adds `row` if independent; returns whether it was accepted.
  bool add(const Vector& row);

 private:
  // Returns the component of `row` orthogonal to the current basis and its
  // original norm (for the relative independence test).
  std::pair<Vector, double> orthogonalize(const Vector& row) const;

  std::size_t dim_;
  double tol_;
  std::vector<Vector> basis_;  // orthonormal
};

}  // namespace scapegoat
