#include "linalg/qr.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <string>

#include "obs/obs.hpp"

namespace scapegoat {

QrDecomposition::QrDecomposition(const Matrix& a, Pivoting pivoting)
    : m_(a.rows()), n_(a.cols()), qr_(a) {
  obs::ScopedTimer timer("linalg.qr.factorize_us");
  obs::count("linalg.qr.factorizations");
  // Householder QR flop count ≈ 2n²(m − n/3) for m ≥ n (Golub & Van Loan).
  const std::size_t mn = std::min(m_, n_);
  obs::count("linalg.qr.flops",
             2 * mn * mn * (std::max(m_, n_) - mn / 3));
  const std::size_t steps = std::min(m_, n_);
  betas_.assign(steps, 0.0);
  perm_.resize(n_);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});

  // Column squared norms for pivot selection, downdated as we go.
  std::vector<double> colnorm(n_, 0.0);
  if (pivoting == Pivoting::kColumn) {
    for (std::size_t c = 0; c < n_; ++c)
      for (std::size_t r = 0; r < m_; ++r) colnorm[c] += qr_(r, c) * qr_(r, c);
  }

  for (std::size_t k = 0; k < steps; ++k) {
    if (pivoting == Pivoting::kColumn) {
      std::size_t best = k;
      for (std::size_t c = k + 1; c < n_; ++c)
        if (colnorm[c] > colnorm[best]) best = c;
      if (best != k) {
        for (std::size_t r = 0; r < m_; ++r) std::swap(qr_(r, k), qr_(r, best));
        std::swap(colnorm[k], colnorm[best]);
        std::swap(perm_[k], perm_[best]);
      }
    }

    // Householder vector annihilating qr_(k+1.., k).
    double norm = 0.0;
    for (std::size_t r = k; r < m_; ++r) norm += qr_(r, k) * qr_(r, k);
    norm = std::sqrt(norm);
    if (norm == 0.0) {
      betas_[k] = 0.0;
      continue;
    }
    const double alpha = qr_(k, k) >= 0 ? -norm : norm;
    const double v0 = qr_(k, k) - alpha;
    // beta = 2 / vᵀv with v = (v0, qr_(k+1..,k)); store v scaled by 1/v0 so
    // the implicit leading entry is 1.
    double vtv = v0 * v0;
    for (std::size_t r = k + 1; r < m_; ++r) vtv += qr_(r, k) * qr_(r, k);
    const double beta = 2.0 * v0 * v0 / vtv;
    for (std::size_t r = k + 1; r < m_; ++r) qr_(r, k) /= v0;
    betas_[k] = beta;

    qr_(k, k) = alpha;
    // Apply the reflector to the trailing columns; the pivot-norm downdate
    // rides along per column.
    for (std::size_t c = k + 1; c < n_; ++c) {
      double dot = qr_(k, c);
      for (std::size_t r = k + 1; r < m_; ++r) dot += qr_(r, k) * qr_(r, c);
      dot *= beta;
      qr_(k, c) -= dot;
      for (std::size_t r = k + 1; r < m_; ++r) qr_(r, c) -= dot * qr_(r, k);
      if (pivoting == Pivoting::kColumn) {
        colnorm[c] -= qr_(k, c) * qr_(k, c);
        if (colnorm[c] < 0.0) colnorm[c] = 0.0;
      }
    }
  }
}

std::size_t QrDecomposition::rank(double tol) const {
  const std::size_t steps = std::min(m_, n_);
  if (steps == 0) return 0;
  const double scale = std::abs(qr_(0, 0));
  if (scale == 0.0) return 0;
  const double threshold =
      tol * static_cast<double>(std::max(m_, n_)) * scale;
  std::size_t r = 0;
  for (std::size_t k = 0; k < steps; ++k)
    if (std::abs(qr_(k, k)) > threshold) ++r;
  return r;
}

void QrDecomposition::apply_reflector(std::size_t k, Vector& y) const {
  if (betas_[k] == 0.0) return;
  double dot = y[k];
  for (std::size_t r = k + 1; r < m_; ++r) dot += qr_(r, k) * y[r];
  dot *= betas_[k];
  y[k] -= dot;
  for (std::size_t r = k + 1; r < m_; ++r) y[r] -= dot * qr_(r, k);
}

Vector QrDecomposition::qt_times(const Vector& b) const {
  assert(b.size() == m_);
  Vector y = b;
  const std::size_t steps = std::min(m_, n_);
  for (std::size_t k = 0; k < steps; ++k) apply_reflector(k, y);
  return y;
}

Vector QrDecomposition::q_times(const Vector& b) const {
  assert(b.size() == m_);
  Vector y = b;
  for (std::size_t k = std::min(m_, n_); k-- > 0;) apply_reflector(k, y);
  return y;
}

Vector QrDecomposition::solve(const Vector& b) const {
  assert(m_ >= n_);
  Vector y = qt_times(b);
  // Back substitution on the n×n upper triangle.
  Vector z(n_);
  for (std::size_t ii = n_; ii-- > 0;) {
    double acc = y[ii];
    for (std::size_t c = ii + 1; c < n_; ++c) acc -= qr_(ii, c) * z[c];
    assert(std::abs(qr_(ii, ii)) > 0.0 && "solve() requires full column rank");
    z[ii] = acc / qr_(ii, ii);
  }
  // Undo the column permutation.
  Vector x(n_);
  for (std::size_t j = 0; j < n_; ++j) x[perm_[j]] = z[j];
  return x;
}

Matrix QrDecomposition::r() const {
  const std::size_t k = std::min(m_, n_);
  Matrix out(k, n_);
  for (std::size_t i = 0; i < k; ++i)
    for (std::size_t j = i; j < n_; ++j) out(i, j) = qr_(i, j);
  return out;
}

std::size_t matrix_rank(const Matrix& a, double tol) {
  if (a.rows() == 0 || a.cols() == 0) return 0;
  return QrDecomposition(a, QrDecomposition::Pivoting::kColumn).rank(tol);
}

robust::Expected<Matrix> try_pseudo_inverse(const Matrix& a) {
  if (a.rows() == 0 || a.cols() == 0) {
    return robust::Error{robust::ErrorCode::kEmptyInput,
                         "pseudo-inverse of an empty matrix"};
  }
  if (a.rows() < a.cols()) {
    return robust::Error{robust::ErrorCode::kRankDeficient,
                         "fewer rows than columns (" +
                             std::to_string(a.rows()) + "x" +
                             std::to_string(a.cols()) + ")"};
  }
  QrDecomposition qr(a, QrDecomposition::Pivoting::kColumn);
  if (!qr.full_column_rank()) {
    return robust::Error{
        robust::ErrorCode::kRankDeficient,
        "numerical rank " + std::to_string(qr.rank()) + " of " +
            std::to_string(a.cols()) + " columns"};
  }
  return pseudo_inverse(qr);
}

Matrix pseudo_inverse(const Matrix& a) {
  return pseudo_inverse(QrDecomposition(a, QrDecomposition::Pivoting::kColumn));
}

Matrix pseudo_inverse(const QrDecomposition& qr) {
  obs::ScopedTimer timer("linalg.pinv.compute_us");
  obs::count("linalg.pinv.computes");
  assert(qr.full_column_rank() && "pseudo_inverse requires full column rank");
  const std::size_t m = qr.rows(), n = qr.cols();
  // m back-solves against the shared factor: ~(2mn + n²) flops each.
  obs::count("linalg.pinv.flops", m * (2 * m * n + n * n));
  Matrix pinv(n, m);
  // Column j of the pseudo-inverse is argmin ‖a x − e_j‖₂, solved against
  // the shared factorization.
  for (std::size_t j = 0; j < m; ++j) {
    Vector ej(m);
    ej[j] = 1.0;
    Vector xj = qr.solve(ej);
    for (std::size_t i = 0; i < n; ++i) pinv(i, j) = xj[i];
  }
  return pinv;
}

}  // namespace scapegoat
