// Householder QR with optional column pivoting.
//
// This is the workhorse behind the tomography estimator and the
// pseudo-inverse used by the attack LPs:
//   * plain QR        → least-squares solve of y = Rx for full-column-rank R,
//   * pivoted QR      → numerical rank of R (identifiability checks and the
//                       greedy rank-augmenting path selector).

#pragma once

#include <vector>

#include "linalg/matrix.hpp"
#include "robust/expected.hpp"

namespace scapegoat {

class QrDecomposition {
 public:
  enum class Pivoting { kNone, kColumn };

  explicit QrDecomposition(const Matrix& a,
                           Pivoting pivoting = Pivoting::kNone);

  std::size_t rows() const { return m_; }
  std::size_t cols() const { return n_; }

  // Numerical rank: number of diagonal entries of R above
  // tol * max(m, n) * |R(0,0)|. Only meaningful with column pivoting
  // (without it the diagonal of R is not ordered by magnitude).
  std::size_t rank(double tol = 1e-10) const;

  bool full_column_rank(double tol = 1e-10) const { return rank(tol) == n_; }

  // Minimum-norm least-squares solve min ‖a x − b‖₂ for full-column-rank a.
  // Requires full_column_rank(); asserts otherwise.
  Vector solve(const Vector& b) const;

  // Applies Qᵀ to a copy of b (length m).
  Vector qt_times(const Vector& b) const;

  // Applies Q to a copy of b (length m): the reflectors in reverse order.
  // Q·e_j is the j-th column of the full m×m factor.
  Vector q_times(const Vector& b) const;

  // The upper-triangular factor (n×n leading block).
  Matrix r() const;

  // Column permutation p such that A(:, p[j]) is the j-th factored column.
  const std::vector<std::size_t>& permutation() const { return perm_; }

 private:
  // y ← H_k·y for the k-th Householder reflector H_k = I − β_k v_k v_kᵀ.
  void apply_reflector(std::size_t k, Vector& y) const;

  std::size_t m_ = 0, n_ = 0;
  // Packed factorization: upper triangle holds R, lower triangle the
  // Householder vectors (v[k]=1 implicit), betas_ the scalar coefficients.
  Matrix qr_;
  std::vector<double> betas_;
  std::vector<std::size_t> perm_;
};

// Numerical rank via pivoted QR.
std::size_t matrix_rank(const Matrix& a, double tol = 1e-10);

// Moore-Penrose pseudo-inverse for full-column-rank a: (aᵀa)⁻¹aᵀ computed as
// column-wise QR least-squares solves (better conditioned than forming aᵀa).
// Asserts full column rank.
Matrix pseudo_inverse(const Matrix& a);

// The same pseudo-inverse from an existing pivoted factorization of a, for
// callers that already hold one; bitwise equal to pseudo_inverse(a).
// Asserts full column rank.
Matrix pseudo_inverse(const QrDecomposition& qr);

// Checked pseudo-inverse: reports rank deficiency (with the numerical rank
// in the message) or an empty input as a structured error instead of
// tripping the assert above. The crash-free entry point for degraded paths.
robust::Expected<Matrix> try_pseudo_inverse(const Matrix& a);

}  // namespace scapegoat
