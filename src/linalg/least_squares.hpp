// Least-squares solving.
//
// `least_squares` solves a dense system by column-pivoted QR; the literal
// Eq. 2 normal-equations solve is `solve_normal_equations` (cholesky.hpp).
// The tomography estimator does not go through it (it keeps its own QR of
// R); tests use it as the reference kernel. `RidgeSolver` is the one Tikhonov
// kernel: the regularized defender of bench_ablation_regularization and
// the degraded-path fallback (`ridge_least_squares`) both solve through it.
// The greedy measurement-path selector decides rank exactly on incidence
// rows (tomography/path_selection.hpp), not in floating point.

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

}  // namespace scapegoat
